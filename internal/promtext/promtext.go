// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) with no external dependencies. It is the one metrics
// writer behind smtsimd's GET /metrics and the fleet client's
// WriteMetrics.
package promtext

import (
	"fmt"
	"io"
)

// Writer emits metric families to W. Write errors are dropped: an
// exposition goes to an HTTP response or a log stream, and a scrape
// that fails to arrive has no one to report the failure to.
type Writer struct{ W io.Writer }

// Family writes the HELP and TYPE lines that open a metric family;
// Sample lines follow.
func (p Writer) Family(name, help, typ string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. labels is "" or a Label rendering; v
// prints with %v, so integers print as %d and floats as %g.
func (p Writer) Sample(name, labels string, v any) {
	fmt.Fprintf(p.W, "%s%s %v\n", name, labels, v)
}

// Counter writes an unlabeled counter family with one sample.
func (p Writer) Counter(name, help string, v int64) {
	p.Family(name, help, "counter")
	p.Sample(name, "", v)
}

// Gauge writes an unlabeled gauge family with one sample.
func (p Writer) Gauge(name, help string, v int64) {
	p.Family(name, help, "gauge")
	p.Sample(name, "", v)
}

// Label renders a single-label set: {name="value"}.
func Label(name, value string) string {
	return fmt.Sprintf("{%s=%q}", name, value)
}
