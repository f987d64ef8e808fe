package main

import (
	"reflect"
	"strings"
	"testing"
)

// Regression: -mixes used to split on "," without trimming, so
// "kitchen-sink, int-memory" rejected " int-memory" as unknown.
func TestSplitMixes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"kitchen-sink", []string{"kitchen-sink"}},
		{"kitchen-sink,int-memory", []string{"kitchen-sink", "int-memory"}},
		{"kitchen-sink, int-memory", []string{"kitchen-sink", "int-memory"}},
		{"  kitchen-sink ,\tint-memory ", []string{"kitchen-sink", "int-memory"}},
		{"kitchen-sink,,int-memory,", []string{"kitchen-sink", "int-memory"}},
		{" , ", nil},
		{"", nil},
	} {
		if got := splitMixes(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitMixes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// -peer-lookup is never consulted with -batch, and -batch-size means
// nothing without -batch: both combinations fail before any run, like
// the fleet flags without -backends.
func TestCheckFleetFlags(t *testing.T) {
	for _, tc := range []struct {
		name                          string
		backends                      string
		batch, peerLookup, fleetStats bool
		auditRate                     float64
		batchSize                     int
		wantErr                       string
	}{
		{name: "local"},
		{name: "per-run", backends: "a:1", peerLookup: true, fleetStats: true, auditRate: 0.1},
		{name: "batch", backends: "a:1", batch: true, batchSize: 8},
		{name: "batch without backends", batch: true, wantErr: "require -backends"},
		{name: "audit without backends", auditRate: 0.5, wantErr: "require -backends"},
		{name: "batch with peer lookup", backends: "a:1", batch: true, peerLookup: true, wantErr: "-peer-lookup has no effect with -batch"},
		{name: "batch size without batch", backends: "a:1", batchSize: 8, wantErr: "-batch-size requires -batch"},
		{name: "batch size alone", batchSize: 8, wantErr: "-batch-size requires -batch"},
	} {
		err := checkFleetFlags(tc.backends, tc.batch, tc.peerLookup, tc.fleetStats, tc.auditRate, tc.batchSize)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
