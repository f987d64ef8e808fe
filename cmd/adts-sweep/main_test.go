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

// The fleet flags without -backends would be accepted but have no
// effect, so they fail before any run.
func TestCheckFleetFlags(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		backends               string
		peerLookup, fleetStats bool
		auditRate              float64
		wantErr                string
	}{
		{name: "local"},
		{name: "fleet", backends: "a:1", peerLookup: true, fleetStats: true, auditRate: 0.1},
		{name: "peer lookup without backends", peerLookup: true, wantErr: "require -backends"},
		{name: "audit without backends", auditRate: 0.5, wantErr: "require -backends"},
	} {
		err := checkFleetFlags(tc.backends, tc.peerLookup, tc.fleetStats, tc.auditRate)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
