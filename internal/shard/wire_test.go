package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"strings"
	"testing"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/stats"
)

func wireResult(rows, attrs int) *ShardResult {
	res := &audit.Result{NumAttrs: attrs}
	for i := 0; i < rows; i++ {
		rep := audit.RecordReport{Row: i, ID: int64(100 + i)}
		if i%2 == 0 {
			rep.ErrorConf = 0.9
			rep.Suspicious = true
			rep.Findings = []audit.Finding{{Attr: i % attrs, Observed: 0, Predicted: 1, ErrorConf: 0.9}}
			rep.Best = &rep.Findings[0]
		}
		res.Reports = append(res.Reports, rep)
	}
	return &ShardResult{Rows: rows, Result: res}
}

// richResult is a 6-row, 3-attribute shard result that reaches every
// corner of the frame: findings with NaN, ±0 and ±Inf confidences, null,
// nominal and numeric suggestions, a Best that is not the first finding,
// IDs that do not count up, and both kinds of quality dimension.
func richResult() *ShardResult {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	reps := []audit.RecordReport{
		{Row: 0, ID: 100},
		{Row: 1, ID: 7, ErrorConf: 0.9, Suspicious: true, Findings: []audit.Finding{
			{Attr: 0, Observed: 1, Predicted: 2, PHat: 0.7, PObs: 0.1, N: 40, ErrorConf: 0.3, Suggestion: dataset.Null()},
			{Attr: 2, Observed: -1, Predicted: 0, PHat: 0.95, PObs: 0, N: 12, ErrorConf: 0.9, Suggestion: dataset.Nom(2)},
		}},
		{Row: 2, ID: -5, ErrorConf: inf, Suspicious: true, Findings: []audit.Finding{
			{Attr: 1, Observed: 3, Predicted: 4, PHat: nan, PObs: inf, N: math.Inf(-1), ErrorConf: inf, Suggestion: dataset.Num(-3.5)},
		}},
		{Row: 3, ID: math.MaxInt64, ErrorConf: negZero, Findings: []audit.Finding{
			{Attr: 0, ErrorConf: negZero, Suggestion: dataset.Num(negZero)},
		}},
		{Row: 4, ID: math.MinInt64, ErrorConf: nan, Findings: []audit.Finding{
			{Attr: 1, ErrorConf: nan, Suggestion: dataset.Num(nan)},
			{Attr: 2, ErrorConf: math.Inf(-1), Suggestion: dataset.Nom(0)},
		}},
		{Row: 5, ID: 1 << 40, ErrorConf: math.Inf(-1), Findings: []audit.Finding{
			{Attr: 2, ErrorConf: math.Inf(-1), Suggestion: dataset.Num(inf)},
		}},
	}
	for _, i := range []int{1, 2, 3, 5} {
		reps[i].RepointBest()
		if reps[i].Best == nil {
			reps[i].Best = &reps[i].Findings[0]
			reps[i].RepointBest()
		}
	}
	kmv := stats.NewKMV(stats.DefaultKMVSize)
	for _, h := range []uint64{9, 1 << 63, 3, 77} {
		kmv.Add(h)
	}
	dims := []audit.AttrDim{
		{Attr: 0, Rows: 6, Nulls: 1, NomSeen: []bool{true, false, true, false, false, false, false, false, true}},
		{Attr: 1, Rows: 6, Sketch: kmv},
		{Attr: 2, Rows: 6, Nulls: 6, NomSeen: []bool{}},
	}
	return &ShardResult{Rows: 6, Result: &audit.Result{Reports: reps, NumAttrs: 3, Dims: dims, CheckTime: 1234 * time.Microsecond}}
}

func gobOf(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeFrame(t testing.TB, sr *ShardResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeShardResult(&buf, sr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShardResultRoundTrip(t *testing.T) {
	noDims := richResult()
	noDims.Result.Dims = nil
	cases := []struct {
		name string
		sr   *ShardResult
	}{
		{"simple", wireResult(7, 3)},
		{"rich", richResult()},
		{"nil dims", noDims},
		{"empty shard", &ShardResult{Rows: 0, Result: &audit.Result{NumAttrs: 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := encodeFrame(t, tc.sr)
			got, err := DecodeShardResult(bytes.NewReader(frame), tc.sr.Rows, tc.sr.Result.NumAttrs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gobOf(t, tc.sr), gobOf(t, got)) {
				t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", got.Result, tc.sr.Result)
			}
			for i := range got.Result.Reports {
				rep, in := &got.Result.Reports[i], &tc.sr.Result.Reports[i]
				// Best must be re-aimed into the report's own findings.
				if (rep.Best == nil) != (in.Best == nil) {
					t.Fatalf("report %d: Best %v, input %v", i, rep.Best, in.Best)
				}
				for j := range in.Findings {
					if in.Best == &in.Findings[j] && rep.Best != &rep.Findings[j] {
						t.Fatalf("report %d: Best not repointed into the decoded findings slice", i)
					}
				}
				// Gob drops the sign of a zero; the frame must not.
				if math.Float64bits(rep.ErrorConf) != math.Float64bits(in.ErrorConf) {
					t.Fatalf("report %d: ErrorConf bits %x, want %x", i, math.Float64bits(rep.ErrorConf), math.Float64bits(in.ErrorConf))
				}
			}
			if again := encodeFrame(t, got); !bytes.Equal(again, frame) {
				t.Fatal("re-encoding the decoded result gave other bytes")
			}
		})
	}
	// A report without findings costs three bytes on sequential IDs.
	clean := &ShardResult{Rows: 1000, Result: &audit.Result{NumAttrs: 3, Reports: make([]audit.RecordReport, 1000)}}
	for i := range clean.Result.Reports {
		clean.Result.Reports[i] = audit.RecordReport{Row: i, ID: int64(5000 + i)}
	}
	if n := len(encodeFrame(t, clean)); n > 3*1000+32 {
		t.Fatalf("1000 clean reports take %d bytes", n)
	}
}

// TestDecodeShardResultRejects: every way a worker response can lie about
// its shape must surface as a protocol error.
func TestDecodeShardResultRejects(t *testing.T) {
	encode := func(sr *ShardResult) *bytes.Buffer {
		var buf bytes.Buffer
		if err := EncodeShardResult(&buf, sr); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	cases := []struct {
		name     string
		body     *bytes.Buffer
		rows     int
		attrs    int
		fragment string
	}{
		{"garbage", bytes.NewBufferString("not gob"), 3, 2, "decoding"},
		{"nil result", encode(&ShardResult{Rows: 3}), 3, 2, "missing"},
		{"short reports", encode(wireResult(2, 2)), 3, 2, "reports"},
		{"rows lie", encode(&ShardResult{Rows: 5, Result: wireResult(3, 2).Result}), 3, 2, "reports"},
		{"wrong width", encode(wireResult(3, 4)), 3, 2, "attributes"},
		{"bad finding attr", func() *bytes.Buffer {
			sr := wireResult(3, 2)
			sr.Result.Reports[0].Findings[0].Attr = 9
			return encode(sr)
		}(), 3, 2, "finding"},
		{"rows out of order", func() *bytes.Buffer {
			sr := wireResult(3, 2)
			sr.Result.Reports[1].Row = 2
			return encode(sr)
		}(), 3, 2, "shard-local row"},
	}
	// Frames built by hand, for counts no encoder writes.
	header := func(rows, attrs, reports int64, findings uint64) []byte {
		b := append([]byte(frameMagic), frameVersion, frameHasResult)
		b = binary.AppendVarint(b, rows)
		b = binary.AppendVarint(b, attrs)
		b = binary.AppendVarint(b, reports)
		return binary.AppendUvarint(b, findings)
	}
	finding := appendFinding(nil, &audit.Finding{Attr: 1, ErrorConf: 0.5})
	frame := func(parts ...[]byte) *bytes.Buffer { return bytes.NewBuffer(bytes.Join(parts, nil)) }
	cases = append(cases, []struct {
		name     string
		body     *bytes.Buffer
		rows     int
		attrs    int
		fragment string
	}{
		{"report count beyond the body", frame(header(3, 2, 3, 0), []byte{0, 0, 0}), 3, 2, "ends inside report 1"},
		{"finding count beyond the body", frame(header(1, 2, 1, 2), []byte{0, 0, 2}, finding), 1, 2, "ends inside a finding of report 0"},
		{"more findings than attributes", frame(header(1, 2, 1, 2), []byte{0, 0, 3}, finding, finding, finding), 1, 2, "claims 3 findings for 2 attributes"},
		{"more findings than the shard holds", frame(header(1, 2, 1, 3)), 1, 2, "claims 3 findings"},
		{"findings past the header's total", frame(header(2, 2, 2, 1), []byte{0, 0, 1}, finding, []byte{0, 0, 1}, finding), 2, 2, "overruns"},
		{"best flag without its finding", func() *bytes.Buffer {
			sr := wireResult(3, 2)
			sr.Result.Reports[2].Findings[0].ErrorConf = 0.5
			return bytes.NewBuffer(encodeFrame(t, sr))
		}(), 3, 2, "best finding"},
		{"gob shard result", func() *bytes.Buffer {
			return bytes.NewBuffer(gobOf(t, wireResult(3, 2)))
		}(), 3, 2, "version"},
		{"future frame version", frame([]byte(frameMagic), []byte{frameVersion + 1, frameHasResult}), 3, 2, "version"},
		{"trailing bytes", frame(encodeFrame(t, wireResult(3, 2)), []byte{0}), 3, 2, "trailing"},
	}...)
	for _, tc := range cases {
		_, err := DecodeShardResult(tc.body, tc.rows, tc.attrs)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.fragment) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.fragment)
		}
	}

	// Every strict prefix of a valid frame is a cut body.
	valid := encodeFrame(t, richResult())
	for n := range valid {
		if _, err := DecodeShardResult(bytes.NewReader(valid[:n]), 6, 3); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte frame decoded", n, len(valid))
		}
	}
}

func TestDecodeReplicaRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeReplica(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage replica decoded")
	}
}
