package prof

import (
	"fmt"
	"io"
	"strings"

	"gem5rtl/internal/stats"
)

// PromName sanitises an internal dotted statistic name into a legal
// Prometheus metric name: every character outside [a-zA-Z0-9_:] becomes an
// underscore, and a leading digit is prefixed with one.
func PromName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP text per the Prometheus text exposition
// format (backslash and newline).
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promEscapeLabel escapes a label value (backslash, quote, newline).
func promEscapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// writeMetric emits one HELP/TYPE/value family with no labels.
func writeMetric(w io.Writer, name, help, typ string, value float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
		name, promEscapeHelp(help), name, typ, name, value)
	return err
}

// WritePromRegistry renders every statistic of a registry as a gauge family
// in the Prometheus text exposition format, in deterministic sorted order.
// prefix namespaces the metric names (e.g. "gem5rtl_"); the dotted internal
// names are sanitised with PromName.
func WritePromRegistry(w io.Writer, prefix string, reg *stats.Registry) error {
	for _, v := range reg.SortedValues() {
		if err := writeMetric(w, prefix+PromName(v.Name), v.Desc, "gauge", v.Sample()); err != nil {
			return err
		}
	}
	return nil
}

// WriteProm renders the attribution report as two labelled counter families,
//
//	<prefix>selfprof_events_total{component="...",kind="..."}
//	<prefix>selfprof_seconds_total{component="...",kind="..."}
//
// in deterministic sorted order, for the sweep service's /v1/metrics plane.
func (r *Report) WriteProm(w io.Writer, prefix string) error {
	sorted := r.Sorted()
	evName := prefix + "selfprof_events_total"
	tmName := prefix + "selfprof_seconds_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Exact simulator events and engine phases dispatched per component owner.\n# TYPE %s counter\n", evName, evName); err != nil {
		return err
	}
	for _, s := range sorted {
		if _, err := fmt.Fprintf(w, "%s{component=\"%s\",kind=\"%s\"} %d\n",
			evName, promEscapeLabel(s.Component), promEscapeLabel(s.Kind), s.Events); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP %s Sampled host time charged per component owner.\n# TYPE %s counter\n", tmName, tmName); err != nil {
		return err
	}
	for _, s := range sorted {
		if _, err := fmt.Fprintf(w, "%s{component=\"%s\",kind=\"%s\"} %g\n",
			tmName, promEscapeLabel(s.Component), promEscapeLabel(s.Kind), float64(s.HostNS)/1e9); err != nil {
			return err
		}
	}
	return nil
}
