package obs

import (
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): one HELP/TYPE pair
// per family, then one line per series sample. Histograms render their
// non-empty buckets as cumulative `_bucket{le="..."}` samples — the
// format permits sparse bounds as long as counts are cumulative and a
// `+Inf` bucket equal to `_count` closes the series — plus `_sum` and
// `_count`.

// writeFamily renders one family. Series print in registration order,
// which is deterministic for a fixed registration sequence.
func writeFamily(b *strings.Builder, f *family) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.promType())
	b.WriteByte('\n')
	for _, key := range f.order {
		writeSeries(b, f, f.series[key])
	}
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, f *family, s *series) {
	if f.kind == kindHistogram {
		writeHistogram(b, f.name, s)
		return
	}
	writeSample(b, f.name, "", s.labelText, formatFloat(s.fn()))
}

// writeHistogram renders the cumulative buckets, sum and count of one
// histogram series. The bucket counts and the closing +Inf/_count sample
// come from one walk over the live atomics; observations racing the
// scrape may make +Inf momentarily exceed the earlier cumulative bounds,
// never undercut them, so monotonicity holds.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	bounds, counts := h.snapshotBuckets()
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		writeSample(b, name, "_bucket", mergeLabels(s.labelText, "le", formatFloat(float64(bound)*h.scale)), formatInt(cum))
	}
	writeSample(b, name, "_bucket", mergeLabels(s.labelText, "le", "+Inf"), formatInt(cum))
	writeSample(b, name, "_sum", s.labelText, formatFloat(float64(h.Sum())*h.scale))
	writeSample(b, name, "_count", s.labelText, formatInt(cum))
}

// writeSample renders one `name suffix labels value` line.
func writeSample(b *strings.Builder, name, suffix, labelText, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	b.WriteString(labelText)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// mergeLabels splices an extra label (the histogram `le`) into a rendered
// label suffix, keeping it last — Prometheus does not require sorted
// label order within a line.
func mergeLabels(labelText, name, value string) string {
	var b strings.Builder
	b.WriteByte('{')
	if labelText != "" {
		// strip the braces and keep the existing pairs first
		b.WriteString(labelText[1 : len(labelText)-1])
		b.WriteByte(',')
	}
	b.WriteString(name)
	b.WriteString(`="`)
	escapeLabelValue(&b, value)
	b.WriteByte('"')
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
