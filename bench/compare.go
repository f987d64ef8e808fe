package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// compareMain reads the paired runs bench/ab.sh recorded in dir (files
// <side>-<workload>-<pair>.json, side base or head, each holding one
// result line) and prints, per workload and end-to-end metric, each
// side's median and quartiles, the head's win fraction, and the verdict
// of the paired-comparison rule (see verdict).
func compareMain(root, dir string) int {
	var decl struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &decl); err != nil {
		return fail(err)
	}
	runs, err := readPairs(dir)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%-16s %-12s %-30s %-30s %5s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "verdict")
	for _, w := range workloadNames {
		pairs := runs[w]
		if len(pairs) == 0 {
			continue
		}
		// Failed items count against the items attempted on each side;
		// a head that fails a larger share than the base regresses on
		// every metric, whatever its timings.
		var attempted, failed [2]int
		for _, p := range pairs {
			for k, side := range p {
				if side != nil {
					attempted[k] += side.Attempted
					failed[k] += side.Failed
				}
			}
		}
		errRate := [2]float64{ratio(float64(failed[0]), float64(attempted[0])), ratio(float64(failed[1]), float64(attempted[1]))}
		moreFailures := errRate[1] > errRate[0]
		errVerdict := "no regression"
		if moreFailures {
			errVerdict = "regression"
		}
		fmt.Printf("%-16s %-12s %-30s %-30s %5s  %s\n", w, "error_rate",
			fmt.Sprintf("%.3g (%d/%d)", errRate[0], failed[0], attempted[0]),
			fmt.Sprintf("%.3g (%d/%d)", errRate[1], failed[1], attempted[1]), "", errVerdict)
		for _, m := range decl.EndToEnd {
			var base, head []float64
			wins := 0
			for _, p := range pairs {
				if p[0] == nil || p[1] == nil {
					continue
				}
				b, h := p[0].Metrics[m.Name].Value, p[1].Metrics[m.Name].Value
				base, head = append(base, b), append(head, h)
				if better(m.Better, h, b) {
					wins++
				}
			}
			if len(base) < 2 {
				continue
			}
			v := verdict(base, head, wins, m.Better, m.Bound, moreFailures)
			bq1, bq3 := quartiles(base)
			hq1, hq3 := quartiles(head)
			fmt.Printf("%-16s %-12s %-30s %-30s %2d/%-2d  %s\n", w, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(base), bq1, bq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", median(head), hq1, hq3),
				wins, len(base), v)
		}
	}
	return 0
}

// readPairs groups the recorded result lines by workload and pair
// number: [0] is the base side, [1] the head side.
func readPairs(dir string) (map[string]map[int]*[2]*resultLine, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]map[int]*[2]*resultLine{}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		side, rest, ok := strings.Cut(name, "-")
		i := strings.LastIndexByte(rest, '-')
		if !ok || i < 0 || (side != "base" && side != "head") {
			continue
		}
		pair, err := strconv.Atoi(rest[i+1:])
		if err != nil {
			continue
		}
		w := rest[:i]
		var line resultLine
		if err := readJSON(filepath.Join(dir, e.Name()), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if out[w] == nil {
			out[w] = map[int]*[2]*resultLine{}
		}
		if out[w][pair] == nil {
			out[w][pair] = &[2]*resultLine{}
		}
		k := 0
		if side == "head" {
			k = 1
		}
		out[w][pair][k] = &line
	}
	return out, nil
}

func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// verdict applies the paired-comparison rule. A head that fails a larger
// share of its items than the base is a regression outright. A gain
// needs at least ten pairs, the head winning at least nine tenths of
// them, and medians that differ by more than the base's own quartile
// spread. Otherwise the head's median may be worse than the base's by at
// most the bound, and a base spread wider than the bound leaves the
// metric unresolved unless every head run beats every base run.
func verdict(base, head []float64, wins int, dir string, bound float64, moreFailures bool) string {
	if moreFailures {
		return "regression (more failed items)"
	}
	if len(base) < 10 {
		return "unresolved (fewer than 10 pairs)"
	}
	bm, hm := median(base), median(head)
	bq1, bq3 := quartiles(base)
	if float64(wins) >= 0.9*float64(len(base)) && math.Abs(hm-bm) > bq3-bq1 {
		return "gain"
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if !better(dir, h, b) {
				allBetter = false
			}
		}
	}
	if (bq3-bq1)/bm > bound && !allBetter {
		return "unresolved"
	}
	worse := hm - bm
	if dir == "higher" {
		worse = bm - hm
	}
	if worse > bound*bm {
		return "regression"
	}
	return "no regression"
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		n, m := 4, len(s)+1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}
