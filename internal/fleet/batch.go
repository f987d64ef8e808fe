package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/simrun"
)

// NewPeerLookup builds the pre-dispatch lookup over the pool's
// GET /v1/result/{key} endpoints. A zero timeout selects the peer
// client's default. The returned lookup digest-verifies every entry
// and treats all failures as misses, so it is safe to consult before
// every dispatch.
func NewPeerLookup(backends []string, timeout time.Duration) (*resultstore.PeerClient, error) {
	urls, err := NormalizeURLs(backends)
	if err != nil {
		return nil, err
	}
	return resultstore.NewPeerClient(resultstore.PeerConfig{Peers: urls, Timeout: timeout}), nil
}

// batchPayload is the POST /v1/batch request body.
type batchPayload struct {
	Configs []core.Config `json:"configs"`
}

// batchWireLine is the union of the item and trailer NDJSON line
// shapes streamed by /v1/batch.
type batchWireLine struct {
	Trailer bool         `json:"trailer"`
	Index   int          `json:"index"`
	Key     string       `json:"key"`
	Result  *core.Result `json:"result"`
	Digest  string       `json:"digest"`
	Error   string       `json:"error"`
	Total   int          `json:"total"`
}

// RunBatch dispatches many configs with chunk sharding: the slice is
// cut into BatchSize chunks, each chunk goes to one backend as a
// single POST /v1/batch, and its NDJSON stream is verified line by
// line. A failed chunk (transport error, truncated stream, bad
// trailer) is retried on another backend; items that still fail —
// or whose lines failed digest verification — fall back to the
// per-item Run path, so one corrupt backend degrades a sweep to
// per-item dispatch instead of poisoning it. Results and errors are
// index-aligned with cfgs.
func (c *Client) RunBatch(ctx context.Context, cfgs []core.Config) ([]core.Result, []error) {
	out := make([]core.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for start := 0; start < len(cfgs); start += c.cfg.BatchSize {
		end := start + c.cfg.BatchSize
		if end > len(cfgs) {
			end = len(cfgs)
		}
		c.runChunk(ctx, cfgs[start:end], out[start:end], errs[start:end])
	}
	return out, errs
}

// runChunk resolves one chunk: batch dispatch with retries, then
// per-item fallback for whatever the stream did not deliver (a failed
// chunk, a corrupt line, or an empty or broken pool). Delivered items
// are sampled for audit exactly as Run's are.
func (c *Client) runChunk(ctx context.Context, cfgs []core.Config, out []core.Result, errs []error) {
	var lines []*batchWireLine
	var served *backend
	body, err := json.Marshal(batchPayload{Configs: cfgs})
	if err == nil {
		served, err = c.withRetries(ctx, func(b *backend) (err error) {
			c.metrics.batches.Add(1)
			lines, err = c.sendBatch(ctx, b, body, len(cfgs))
			return err
		})
	}
	if err != nil && ctx.Err() != nil {
		for i := range errs {
			errs[i] = ctx.Err()
		}
		return
	}
	for i := range cfgs {
		if i < len(lines) && lines[i] != nil {
			if l := lines[i]; l.Error != "" {
				errs[i] = fmt.Errorf("fleet: %s: batch item %d: %s", served.url, i, l.Error)
			} else {
				out[i] = c.maybeAudit(ctx, served, cfgs[i], *l.Result)
			}
			continue
		}
		// Not delivered by any batch stream (failed chunk, corrupt line,
		// empty pool): the per-item path retries and reports
		// ErrNoBackends so callers can run locally.
		c.metrics.batchFallback.Add(1)
		out[i], errs[i] = c.Run(ctx, cfgs[i])
	}
}

// sendBatch performs one POST /v1/batch of n configs against backend b
// and returns its verified lines, index-aligned with the configs. Lines
// whose digest does not verify are counted against b and left nil for
// the caller to re-fetch; a stream without a matching trailer fails the
// whole chunk.
func (c *Client) sendBatch(ctx context.Context, b *backend, body []byte, n int) ([]*batchWireLine, error) {
	var lines []*batchWireLine
	err := c.post(ctx, b, "/v1/batch", body, func(resp *http.Response) error {
		l, corrupt, err := decodeBatch(resp.Body, n)
		for ; corrupt > 0; corrupt-- {
			c.noteDigestMismatch(b)
		}
		for _, line := range l {
			if line != nil && line.Error == "" {
				c.metrics.batchItems.Add(1)
			}
		}
		lines = l
		return err
	})
	if err != nil {
		return nil, err
	}
	return lines, nil
}

// decodeBatch reads the NDJSON stream of a batch of n configs. It
// returns the lines it accepted, index-aligned: each is an item error
// (Error set) or a result whose digest verifies. Lines failing digest
// verification are dropped and counted in corrupt — a bad line costs
// one per-item re-fetch, not the chunk. It returns an error unless a
// trailer accounting for exactly n items arrives; io.EOF before the
// trailer is a truncated stream (killed backend, dropped connection),
// anything else framing corruption.
func decodeBatch(r io.Reader, n int) (lines []*batchWireLine, corrupt int, err error) {
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
		case line.Error != "":
			lines[line.Index] = line
		case line.Result == nil:
			line.Error = "empty result line"
			lines[line.Index] = line
		case line.Digest == "" || simrun.ResultDigest(*line.Result) != line.Digest:
			corrupt++
		default:
			lines[line.Index] = line
		}
	}
}

// BatchExecutor adapts the client to internal/runner's batch seam:
// chunks of jobs with transportable configs ship as one POST /v1/batch
// per backend; everything else — untransportable payloads, and any
// item the pool cannot take — runs locally, so a sweep always
// completes.
func (c *Client) BatchExecutor() runner.BatchExecutor[core.Result] {
	return batchExecutor{executor{c}}
}

type batchExecutor struct{ executor }

func (e batchExecutor) ExecuteBatch(ctx context.Context, jobs []runner.Job[core.Result]) ([]core.Result, []error) {
	out := make([]core.Result, len(jobs))
	errs := make([]error, len(jobs))
	cfgs := make([]core.Config, 0, len(jobs))
	idxs := make([]int, 0, len(jobs))
	for i, j := range jobs {
		cfg, ok := j.Payload.(core.Config)
		if !ok || cfg.Programs != nil {
			out[i], errs[i] = j.Run(ctx)
			continue
		}
		cfgs = append(cfgs, cfg)
		idxs = append(idxs, i)
	}
	if len(cfgs) == 0 {
		return out, errs
	}
	res, rerrs := e.c.RunBatch(ctx, cfgs)
	for k, i := range idxs {
		if rerrs[k] != nil && errors.Is(rerrs[k], ErrNoBackends) {
			e.c.metrics.localFallback.Add(1)
			out[i], errs[i] = jobs[i].Run(ctx)
			continue
		}
		out[i], errs[i] = res[k], rerrs[k]
	}
	return out, errs
}
