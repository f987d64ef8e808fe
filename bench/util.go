package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// median returns the median of xs; 0 for none.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// envInfo is recorded with every result: a number is only comparable
// with one taken on the same host shape and toolchain.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// currentEnv describes this process's host and the commit of the
// checkout dir belongs to.
func currentEnv(dir string) envInfo {
	return envInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(dir)}
}

// commitOf names the checkout's commit, or "unknown" outside git.
func commitOf(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding the product's go.mod and cmd/smtsimd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "smtsimd")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (a directory with go.mod and cmd/smtsimd) above the working directory")
		}
		dir = parent
	}
}

// expected.json pins one pass digest per workload at seed 1: SHA-256
// over the item result digests in item order. No real-hardware reference
// exists, so the model is unvalidated; the benchmark pins the simulated
// output instead of reporting an accuracy figure.
//
//go:embed expected.json
var expectedJSON []byte

func expectedDigests() (map[string]string, error) {
	m := map[string]string{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// passDigest is the SHA-256 over a pass's item digests, in item order.
func passDigest(itemDigests []string) string {
	sum := sha256.Sum256([]byte(strings.Join(itemDigests, "\n")))
	return hex.EncodeToString(sum[:])
}

// checkExpected reports whether a full-scale seed-1 pass matches the
// pinned digest; other seeds and scales have nothing pinned.
func checkExpected(spec childSpec, itemDigests []string) bool {
	if spec.Seed != 1 || spec.Scale != fullScale {
		return true
	}
	want, err := expectedDigests()
	if err != nil {
		return false
	}
	return want[spec.Workload] == passDigest(itemDigests)
}
