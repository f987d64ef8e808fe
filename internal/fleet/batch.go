package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
)

// NewPeerLookup builds the pre-dispatch lookup over the pool's store
// manifests and GET /v1/result/{key} endpoints. A zero timeout selects
// the peer client's default. The returned lookup digest-verifies every
// entry and treats all failures as misses, so it is safe to consult
// before every dispatch.
func NewPeerLookup(backends []string, timeout time.Duration) (*resultstore.PeerClient, error) {
	urls, err := NormalizeURLs(backends)
	if err != nil {
		return nil, err
	}
	return resultstore.NewPeerClient(resultstore.PeerConfig{Peers: urls, Timeout: timeout}), nil
}

// requestTimeout bounds one dispatch: queueing plus simulation on the
// backend.
const requestTimeout = 5 * time.Minute

// batchWireLine is the union of the item and trailer NDJSON line
// shapes streamed by /v1/batch. Result holds the line's result bytes as
// they arrived; decodeBatch hashes them and decodes an accepted line's
// result once, into res.
type batchWireLine struct {
	Trailer bool            `json:"trailer"`
	Index   int             `json:"index"`
	Key     string          `json:"key"`
	Result  json.RawMessage `json:"result"`
	Digest  string          `json:"digest"`
	Error   string          `json:"error"`
	Total   int             `json:"total"`

	res core.Result
}

// RunBatch dispatches many configs with chunk sharding. With a
// PeerLookup, every config is looked up first and a verified stored
// result answers it without dispatch. The misses are cut into BatchSize
// chunks and each chunk is one dispatch, so a corrupt or dying backend
// costs a resend of the items it failed, not the sweep. Results and
// errors are index-aligned with cfgs.
func (c *Client) RunBatch(ctx context.Context, cfgs []core.Config) ([]core.Result, []error) {
	out := make([]core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	keys := make([]string, len(cfgs))
	misses := make([]int, 0, len(cfgs))
	var hit bool
	for i, cfg := range cfgs {
		keys[i] = resultstore.ConfigKey(cfg)
		if out[i], hit = c.lookup(ctx, keys[i]); !hit {
			misses = append(misses, i)
		}
	}
	if c.cfg.PeerLookup != nil && len(cfgs) > 0 {
		c.manifestsNoted.Do(c.noteManifestErrors)
	}
	for start := 0; start < len(misses); start += c.cfg.BatchSize {
		c.dispatch(ctx, cfgs, keys, misses[start:min(start+c.cfg.BatchSize, len(misses))], out, errs)
	}
	return out, errs
}

// lookup is the pre-dispatch lookup: a result already stored in the
// fleet (verified end to end by the peer client) costs one GET to a
// backend that lists it instead of a simulation slot. It returns the
// stored result and whether there was one.
func (c *Client) lookup(ctx context.Context, key string) (core.Result, bool) {
	if c.cfg.PeerLookup == nil {
		return core.Result{}, false
	}
	if e, ok := c.cfg.PeerLookup.Lookup(ctx, key); ok {
		if res, err := e.Decode(); err == nil {
			c.metrics.peerHits.Add(1)
			return res, true
		}
	}
	c.metrics.peerMisses.Add(1)
	return core.Result{}, false
}

// dispatch is the one path by which configs reach a backend: it ships
// the configs at positions idx of cfgs (whose keys are keys) and fills
// the same positions of out and errs. Each attempt, under withRetries,
// sends the items not yet delivered as one POST /v1/batch to the
// backend pick chose and delivers every line post accepted. A failed
// request, a broken stream, a corrupt or misbound line and an item
// error line all leave their items for the next attempt, on another
// backend; one MaxRetries budget covers the chunk. Delivered items are
// sampled for audit in index order. Items still undelivered when the
// budget runs out get withRetries' error, which wraps ErrNoBackends
// when no backend could take them.
func (c *Client) dispatch(ctx context.Context, cfgs []core.Config, keys []string, idx []int, out []core.Result, errs []error) {
	raws := make([][]byte, len(idx))
	var pending []int // positions in idx not yet delivered
	for k, i := range idx {
		raw, err := json.Marshal(cfgs[i])
		if err != nil {
			errs[i] = fmt.Errorf("fleet: encoding config: %w", err)
			continue
		}
		raws[k] = raw
		pending = append(pending, k)
	}
	if len(pending) == 0 {
		return
	}
	served := make([]*backend, len(idx))
	attempted := false
	err := c.withRetries(ctx, func(b *backend) error {
		if attempted {
			c.metrics.batchFallback.Add(int64(len(pending)))
		}
		attempted = true
		c.metrics.dispatched.Add(1)
		sendRaws := make([][]byte, len(pending))
		sendKeys := make([]string, len(pending))
		for n, k := range pending {
			sendRaws[n], sendKeys[n] = raws[k], keys[idx[k]]
		}
		lines, err := c.post(ctx, b, sendRaws, sendKeys)
		var left []int
		for n, k := range pending {
			switch l := lines[n]; {
			case l == nil:
				left = append(left, k)
			case l.Error != "":
				left = append(left, k)
				if err == nil {
					err = fmt.Errorf("fleet: %s: item %d: %s", b.url, idx[k], l.Error)
				}
			default:
				c.metrics.batchItems.Add(1)
				out[idx[k]], served[k] = l.res, b
			}
		}
		pending = left
		if err == nil && len(pending) > 0 {
			err = fmt.Errorf("fleet: %s: %d item(s) came back without a verified line", b.url, len(pending))
		}
		return err
	})
	for _, k := range pending {
		errs[idx[k]] = err
	}
	for k, b := range served {
		if i := idx[k]; b != nil {
			out[i] = c.maybeAudit(ctx, b, raws[k], keys[i], out[i])
		}
	}
}

// sendOne is one POST /v1/batch of a single encoded config to b, with
// no retry: an audit's second or third opinion.
func (c *Client) sendOne(ctx context.Context, b *backend, raw []byte, key string) (core.Result, error) {
	lines, err := c.post(ctx, b, [][]byte{raw}, []string{key})
	if err != nil {
		return core.Result{}, err
	}
	if l := lines[0]; l != nil && l.Error == "" {
		return l.res, nil
	}
	return core.Result{}, fmt.Errorf("fleet: %s: no verified result", b.url)
}

// post is the one request path to a backend: it POSTs the encoded
// configs to b's /v1/batch and returns the stream's accepted lines,
// index-aligned with keys and nil where nothing was delivered (see
// decodeBatch). It releases the in-flight slot pick reserved on b and
// maintains b's health and latency stats. Transport failures, non-200
// statuses (a 429 from a proxy in between included) and broken streams
// are charged, downAfter of them in a row mark b down, and each
// corrupt or misbound line counts toward b's quarantine. A caller that
// gave up is not the backend's fault: its context error returns
// uncharged. Each request is bounded by requestTimeout.
func (c *Client) post(ctx context.Context, b *backend, raws [][]byte, keys []string) ([]*batchWireLine, error) {
	defer b.inflight.Add(-1)
	b.requests.Add(1)
	lines := make([]*batchWireLine, len(keys))

	body := append([]byte(`{"configs":[`), bytes.Join(raws, []byte(","))...)
	body = append(body, "]}"...)

	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, b.url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return lines, fmt.Errorf("fleet: %s: %w", b.url, err)
	}
	req.Header.Set("Content-Type", "application/json")

	start := c.cfg.now()
	resp, err := c.http.Do(req)
	if err == nil {
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var corrupt int
			lines, corrupt, err = decodeBatch(resp.Body, keys)
			for ; corrupt > 0; corrupt-- {
				c.noteDigestMismatch(b)
			}
		default:
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
			err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			return lines, ctx.Err()
		}
		b.errors.Add(1)
		if b.fail() {
			fmt.Fprintf(c.cfg.Log, "fleet: backend %s is down after %d failed dispatches in a row (last: %v)\n", b.url, downAfter, err)
		}
		return lines, fmt.Errorf("fleet: %s: %w", b.url, err)
	}
	b.succeed()
	b.observe(c.cfg.now().Sub(start).Microseconds())
	return lines, nil
}

// decodeBatch reads the NDJSON stream of a batch whose configs have the
// given keys. It returns the lines it accepted, index-aligned with
// keys: each is bound to its config (its key is its index's key) and
// is an item error (Error set) or a result whose bytes hash to its
// digest and decode. A line that is misbound, fails digest
// verification or does not decode is dropped and counted in corrupt:
// it costs a resend of that item, not the chunk.
// It returns an error unless a trailer accounting for every item
// arrives; io.EOF before the trailer is a truncated stream (killed
// backend, dropped connection), anything else framing corruption.
func decodeBatch(r io.Reader, keys []string) (lines []*batchWireLine, corrupt int, err error) {
	n := len(keys)
	lines = make([]*batchWireLine, n)
	dec := json.NewDecoder(r)
	for {
		line := new(batchWireLine)
		if err := dec.Decode(line); err != nil {
			return lines, corrupt, fmt.Errorf("batch stream broke before the trailer: %v", err)
		}
		switch {
		case line.Trailer:
			if line.Total != n {
				return lines, corrupt, fmt.Errorf("batch trailer accounts for %d items, sent %d", line.Total, n)
			}
			return lines, corrupt, nil
		case line.Index < 0 || line.Index >= n:
			return lines, corrupt, fmt.Errorf("batch line index %d out of range", line.Index)
		case line.Key != keys[line.Index]:
			corrupt++
		case line.Error != "":
			lines[line.Index] = line
		case len(line.Result) == 0:
			line.Error = "empty result line"
			lines[line.Index] = line
		case line.Digest == "" || simrun.DigestJSON(line.Result) != line.Digest,
			json.Unmarshal(line.Result, &line.res) != nil:
			corrupt++
		default:
			lines[line.Index] = line
		}
	}
}

// BatchExecutor adapts the client to internal/runner: chunks of jobs
// with transportable configs go through RunBatch (the lookup, then one
// POST /v1/batch per BatchSize of misses); everything else —
// untransportable payloads, and any item the pool cannot take — runs
// locally, so a sweep always completes.
func (c *Client) BatchExecutor() runner.BatchExecutor[core.Result] {
	return executor{c}
}

type executor struct{ c *Client }

func (e executor) Execute(ctx context.Context, j runner.Job[core.Result]) (core.Result, error) {
	res, errs := e.ExecuteBatch(ctx, []runner.Job[core.Result]{j})
	return res[0], errs[0]
}

func (e executor) ExecuteBatch(ctx context.Context, jobs []runner.Job[core.Result]) ([]core.Result, []error) {
	out := make([]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	cfgs := make([]core.Config, 0, len(jobs))
	idxs := make([]int, 0, len(jobs))
	for i, j := range jobs {
		cfg, ok := j.Payload.(core.Config)
		if !ok || cfg.Programs != nil {
			// No transportable payload (or live program state): local run.
			out[i], errs[i] = j.Run(ctx)
			continue
		}
		cfgs = append(cfgs, cfg)
		idxs = append(idxs, i)
	}
	res, rerrs := e.c.RunBatch(ctx, cfgs)
	for k, i := range idxs {
		if errors.Is(rerrs[k], ErrNoBackends) {
			e.c.metrics.localFallback.Add(1)
			out[i], errs[i] = jobs[i].Run(ctx)
			continue
		}
		out[i], errs[i] = res[k], rerrs[k]
	}
	return out, errs
}
