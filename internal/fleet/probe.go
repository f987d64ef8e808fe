package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// healthReply mirrors simserver's GET /healthz body. StoreState is the
// backend's result-store serving state ("ok", "readonly",
// "memory-only"); degraded backends stay routable but carry a dispatch
// penalty so load drifts toward healthy stores.
type healthReply struct {
	Status     string `json:"status"`
	Version    string `json:"version"`
	StoreState string `json:"store_state"`
}

// probeLoop re-probes every backend at the configured interval until
// the client is closed. New runs the first sweep itself, before any
// dispatch.
func (c *Client) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.ProbeNow(ctx)
		}
	}
}

// ProbeNow probes every backend's /healthz once, in parallel, setting
// each backend's up/down state and recording its version. A good probe
// is the only way back up for a backend that a failed probe or a
// dispatch failure streak marked down. It logs transitions (backend
// down / recovered) and version skew across the pool. The prober calls
// it periodically; tests and CLIs may call it directly for an
// immediate pool assessment.
func (c *Client) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range c.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			up, version, store := c.probeOne(ctx, b)
			wasUp, wasStore := b.setProbe(up, version, store)
			if up != wasUp {
				state := "down"
				if up {
					state = "up"
				}
				fmt.Fprintf(c.cfg.Log, "fleet: backend %s is %s\n", b.url, state)
			}
			if up && store != wasStore && (store != "" || wasStore != "") {
				fmt.Fprintf(c.cfg.Log, "fleet: backend %s store is %s (was %s)\n",
					b.url, orUnknown(store), orUnknown(wasStore))
			}
		}(b)
	}
	wg.Wait()
	c.logVersionSkew()
}

// probeOne GETs one backend's /healthz. A backend is up only when it
// answers 200 with status "ok" — a draining backend stops receiving new
// work. The store state rides along for dispatch weighting; older
// backends that don't report one probe as "" (no penalty).
func (c *Client) probeOne(ctx context.Context, b *backend) (up bool, version, storeState string) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		return false, "", ""
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, "", ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, "", ""
	}
	var h healthReply
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, "", ""
	}
	return h.Status == "ok", h.Version, h.StoreState
}

// orUnknown renders an empty probe state for logs.
func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// logVersionSkew warns (once per distinct combination) when the up
// backends report more than one version — a mixed deployment can serve
// correct but differently-tuned results, and operators should know.
func (c *Client) logVersionSkew() {
	versions := make(map[string][]string)
	for _, b := range c.backends {
		if up, v, _ := b.health(); up && v != "" {
			versions[v] = append(versions[v], b.url)
		}
	}
	if len(versions) < 2 {
		c.skewMu.Lock()
		c.lastSkew = ""
		c.skewMu.Unlock()
		return
	}
	keys := make([]string, 0, len(versions))
	for v := range versions {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	fp := strings.Join(keys, "|")
	c.skewMu.Lock()
	logIt := c.lastSkew != fp
	c.lastSkew = fp
	c.skewMu.Unlock()
	if logIt {
		var parts []string
		for _, v := range keys {
			sort.Strings(versions[v])
			parts = append(parts, fmt.Sprintf("%s: %s", v, strings.Join(versions[v], ", ")))
		}
		fmt.Fprintf(c.cfg.Log, "fleet: backend version skew across pool — %s\n", strings.Join(parts, "; "))
	}
}
