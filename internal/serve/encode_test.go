package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/quis"
)

// quisFixture is a polluted 30 000-row QUIS sample (the generator's
// minimum), a model induced on it, and the sample's suspicious reports in
// row order. It is built once and shared: the model and the table are
// only read.
func quisFixture(t testing.TB) (*audit.Model, *dataset.Table, []audit.RecordReport) {
	t.Helper()
	quisOnce.Do(func() {
		sample, err := quis.Generate(quis.Params{NumRecords: 30000, Seed: 2003})
		if err != nil {
			quisErr = err
			return
		}
		plan := pollute.Plan{Cell: []pollute.Configured{
			{Prob: 0.02, P: &pollute.WrongValuePolluter{}},
			{Prob: 0.01, P: &pollute.NullValuePolluter{}},
		}}
		dirty, _ := pollute.Run(sample.Data, plan, rand.New(rand.NewSource(42)))
		m, err := audit.Induce(dirty, audit.Options{MinConfidence: 0.8})
		if err != nil {
			quisErr = err
			return
		}
		for _, rep := range m.AuditTable(dirty).Reports {
			if rep.Suspicious {
				quisReports = append(quisReports, rep)
			}
		}
		quisModel, quisTable = m, dirty
	})
	if quisErr != nil {
		t.Fatal(quisErr)
	}
	return quisModel, quisTable, quisReports
}

var (
	quisOnce    sync.Once
	quisModel   *audit.Model
	quisTable   *dataset.Table
	quisReports []audit.RecordReport
	quisErr     error
)

// referenceReportJSON is the stream route's rendering of a report before
// it had its own encoder, kept verbatim as the reference: the labels
// found by a scan of m.Attrs and the description by DescribeFinding's
// fmt.Sprintf format.
func referenceReportJSON(m *audit.Model, rep *audit.RecordReport) ReportJSON {
	finding := func(f *audit.Finding) FindingJSON {
		attr := m.Schema.Attr(f.Attr)
		out := FindingJSON{
			Attr: attr.Name, Observed: "?", PHat: f.PHat, PObs: f.PObs, N: f.N,
			ErrorConf: f.ErrorConf, Suggestion: attr.Format(f.Suggestion),
		}
		for _, am := range m.Attrs {
			if am.Class != f.Attr {
				continue
			}
			if f.Observed >= 0 && f.Observed < len(am.Labels) {
				out.Observed = am.Labels[f.Observed]
			}
			if f.Predicted >= 0 && f.Predicted < len(am.Labels) {
				out.Predicted = am.Labels[f.Predicted]
			}
			break
		}
		return out
	}
	out := ReportJSON{Row: rep.Row, ID: rep.ID, ErrorConf: rep.ErrorConf, Suspicious: rep.Suspicious}
	for i := range rep.Findings {
		out.Findings = append(out.Findings, finding(&rep.Findings[i]))
	}
	if f := rep.Best; f != nil {
		fj := finding(f)
		out.Best = &fj
		var observed, predicted string = "?", ""
		for _, am := range m.Attrs {
			if am.Class == f.Attr {
				if f.Observed >= 0 {
					observed = am.Labels[f.Observed]
				}
				predicted = am.Labels[f.Predicted]
				break
			}
		}
		out.Description = fmt.Sprintf("%s: observed %s, expected %s (P=%.4f, n=%.0f, error confidence %.2f%%)",
			m.Schema.Attr(f.Attr).Name, observed, predicted, f.PHat, f.N, f.ErrorConf*100)
	}
	return out
}

// referenceReportLine renders rep's stream line as the route did before
// it had its own encoder: referenceReportJSON through json.Encoder.
func referenceReportLine(m *audit.Model, rep *audit.RecordReport) ([]byte, error) {
	rj := referenceReportJSON(m, rep)
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(StreamLine{Report: &rj})
	return buf.Bytes(), err
}

// fuzzReport builds a ReportJSON from fuzzed parts: shape's low two bits
// give 0–3 findings, bit 2 a best finding and bit 3 the description.
// Finding i rotates through the strings and the float bit patterns, so
// finding 0 takes them in order: attr, observed, predicted, suggestion,
// and pHat = x1, pObs = x2, n = x3, errorConf = x4 (x0 is the report's
// errorConf).
func fuzzReport(row int, id int64, suspicious bool, shape uint8, strs [4]string, desc string, bits [6]uint64) *ReportJSON {
	fl := func(i int) float64 { return math.Float64frombits(bits[i%len(bits)]) }
	finding := func(i int) FindingJSON {
		return FindingJSON{
			Attr: strs[i%4], Observed: strs[(i+1)%4], Predicted: strs[(i+2)%4], Suggestion: strs[(i+3)%4],
			PHat: fl(i + 1), PObs: fl(i + 2), N: fl(i + 3), ErrorConf: fl(i + 4),
		}
	}
	r := &ReportJSON{Row: row, ID: id, ErrorConf: fl(0), Suspicious: suspicious}
	for i := range int(shape & 3) {
		r.Findings = append(r.Findings, finding(i))
	}
	if shape&4 != 0 {
		best := finding(0)
		r.Best = &best
	}
	if shape&8 != 0 {
		r.Description = desc
	}
	return r
}

// FuzzReportJSON holds appendReportJSON to encoding/json: for any report,
// the appender's bytes and a newline equal json.Encoder's line, or both
// fail with the same error text.
func FuzzReportJSON(f *testing.F) {
	m, _, reps := quisFixture(f)
	rr := newReportRenderer(m)
	for i := range reps {
		rj := rr.reportJSON(&reps[i])
		b := rj.Best
		f.Add(rj.Row, rj.ID, rj.Suspicious, uint8(min(len(rj.Findings), 3)|4|8),
			b.Attr, b.Observed, b.Predicted, b.Suggestion, rj.Description,
			math.Float64bits(rj.ErrorConf), math.Float64bits(b.PHat), math.Float64bits(b.PObs),
			math.Float64bits(b.N), math.Float64bits(b.ErrorConf), math.Float64bits(rj.Findings[len(rj.Findings)-1].PHat))
	}
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324,
		2.2250738585072014e-308, 1e-7, 1e-6, 1e21, 1e20, 123456789012345678901.0, 0.1}
	for i, x := range edges {
		y := edges[(i+1)%len(edges)]
		f.Add(i, int64(-i), i%2 == 0, uint8(i), "<a>&b", "\u2028\u2029", "\xff\xfe ok", "tab\t\"q\"\\\x01\x7f",
			"\u00e9\u2014\u00fc \x80", math.Float64bits(x), math.Float64bits(y), math.Float64bits(x), math.Float64bits(y),
			math.Float64bits(0.5), math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, row int, id int64, suspicious bool, shape uint8, attr, observed, predicted, suggestion, desc string,
		x0, x1, x2, x3, x4, x5 uint64) {
		r := fuzzReport(row, id, suspicious, shape, [4]string{attr, observed, predicted, suggestion}, desc, [6]uint64{x0, x1, x2, x3, x4, x5})
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(r)
		got, err := appendReportJSON([]byte{}, r)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("errors differ: appender %v, encoding/json %v", err, wantErr)
			}
			return
		}
		if got = append(got, '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appender and encoding/json differ:\n got %s\nwant %s", got, want.Bytes())
		}
	})
}

// TestReportLineUnsupportedFloat: a float JSON cannot carry, in any
// float field, fails the line with encoding/json's error text — the
// text the stream's terminal error line then carries — and writes
// nothing of the line.
func TestReportLineUnsupportedFloat(t *testing.T) {
	m, _, reps := quisFixture(t)
	enc := streamEncoder{rr: newReportRenderer(m)}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := range 5 {
			rep := reps[0]
			rep.Findings = append([]audit.Finding(nil), rep.Findings...)
			best := *rep.Best
			rep.Best = &best
			switch field {
			case 0:
				rep.ErrorConf = x
			case 1:
				rep.Best.PHat = x
			case 2:
				rep.Findings[0].PObs = x
			case 3:
				rep.Best.N = x
			case 4:
				rep.Findings[len(rep.Findings)-1].ErrorConf = x
			}
			_, wantErr := referenceReportLine(m, &rep)
			line, err := enc.reportLine(&rep)
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() || line != nil {
				t.Fatalf("field %d = %v: appender (%q, %v), encoding/json %v", field, x, line, err, wantErr)
			}
		}
	}
}

// streamBody posts csv to the model's stream route and returns the
// response's lines, newline included.
func streamBody(t *testing.T, url string, csv []byte) []string {
	t.Helper()
	resp, err := http.Post(url, "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// requireReferenceBody compares a stream body with an in-process audit
// of the same CSV whose report lines encoding/json renders: line for
// line, then a summary line of the right row count.
func requireReferenceBody(t *testing.T, m *audit.Model, lines []string, csv []byte, chunk, rows int) {
	t.Helper()
	src, err := dataset.NewCSVSource(bytes.NewReader(csv), m.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	_, err = m.AuditStream(src, audit.StreamOptions{ChunkSize: chunk, Workers: 1, OnSuspicious: func(rep *audit.RecordReport) error {
		line, err := referenceReportLine(m, rep)
		want = append(want, string(line))
		return err
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the fixture flags no row")
	}
	if len(lines) != len(want)+1 {
		t.Fatalf("body has %d lines, want %d report lines and a summary", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i, lines[i], want[i])
		}
	}
	var last StreamLine
	if err := json.Unmarshal([]byte(lines[len(want)]), &last); err != nil || last.Summary == nil || last.Summary.RowsChecked != int64(rows) {
		t.Fatalf("last line %q (%v), want a summary of %d rows", lines[len(want)], err, rows)
	}
}

// TestStreamBodyMatchesEncodingJSON: the stream route's body equals,
// line for line, the report lines encoding/json renders for the same
// reports — on the engines fixture in 64-row chunks and on a polluted
// QUIS table in the default chunks.
func TestStreamBodyMatchesEncodingJSON(t *testing.T) {
	t.Run("engines", func(t *testing.T) {
		reg := openRegistry(t)
		ts, _ := startTestServer(t, reg)
		tab := publishEngines(t, ts, 3000)
		dirty, _ := corruptGBM(t, tab, 40)
		var csv bytes.Buffer
		if err := dataset.WriteCSV(&csv, dirty); err != nil {
			t.Fatal(err)
		}
		m, _, err := reg.Get("engines")
		if err != nil {
			t.Fatal(err)
		}
		lines := streamBody(t, ts.URL+"/v1/models/engines/audit/stream?chunk=64&workers=2", csv.Bytes())
		requireReferenceBody(t, m, lines, csv.Bytes(), 64, dirty.NumRows())
	})
	t.Run("quis", func(t *testing.T) {
		m, dirty, _ := quisFixture(t)
		reg := openRegistry(t)
		if _, err := reg.Publish("quis", m); err != nil {
			t.Fatal(err)
		}
		ts, _ := startTestServer(t, reg)
		var csv bytes.Buffer
		if err := dataset.WriteCSV(&csv, dirty); err != nil {
			t.Fatal(err)
		}
		lines := streamBody(t, ts.URL+"/v1/models/quis/audit/stream?workers=2", csv.Bytes())
		requireReferenceBody(t, m, lines, csv.Bytes(), streamChunk, dirty.NumRows())
	})
}

// flushCounter is a ResponseWriter that counts its flushes.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestStreamFlushesOncePerChunk: the route flushes once for every chunk
// that had a suspicious row, and once more for the summary — not once
// per report line.
func TestStreamFlushesOncePerChunk(t *testing.T) {
	reg := openRegistry(t)
	ts, srv := startTestServer(t, reg)
	tab := publishEngines(t, ts, 3000)
	dirty, _ := corruptGBM(t, tab, 60)
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, dirty); err != nil {
		t.Fatal(err)
	}
	const chunk = 64
	req := httptest.NewRequest(http.MethodPost, "/v1/models/engines/audit/stream?chunk=64", &csv)
	req.Header.Set("Content-Type", "text/csv")
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	reports, summary, errLine := readStream(t, w.Body)
	if summary == nil || errLine != "" {
		t.Fatalf("stream did not end in a summary: %q", errLine)
	}
	units := make(map[int]bool)
	for _, rep := range reports {
		units[rep.Row/chunk] = true
	}
	if len(reports) <= len(units) {
		t.Fatalf("%d reports in %d chunks: no chunk holds two, so the test shows nothing", len(reports), len(units))
	}
	if w.flushes != len(units)+1 {
		t.Fatalf("%d flushes for %d report lines in %d chunks, want %d", w.flushes, len(reports), len(units), len(units)+1)
	}
}

// BenchmarkStreamReportEncode renders the QUIS fixture's suspicious
// reports as stream lines through the route's encoder and through the
// encoding/json reference (referenceReportLine's rendering), reporting
// ns and allocations per report.
func BenchmarkStreamReportEncode(b *testing.B) {
	m, _, reps := quisFixture(b)
	paths := []struct {
		name string
		line func() func(*audit.RecordReport) error // one per request
	}{
		{"appender", func() func(*audit.RecordReport) error {
			enc := streamEncoder{rr: newReportRenderer(m)}
			return func(rep *audit.RecordReport) error {
				line, err := enc.reportLine(rep)
				if err == nil {
					_, err = io.Discard.Write(line)
				}
				return err
			}
		}},
		{"encoding_json", func() func(*audit.RecordReport) error {
			enc := json.NewEncoder(io.Discard)
			return func(rep *audit.RecordReport) error {
				rj := referenceReportJSON(m, rep)
				return enc.Encode(StreamLine{Report: &rj})
			}
		}},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				line := p.line()
				for i := range reps {
					if err := line(&reps[i]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(len(reps))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/report")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/report")
		})
	}
}
