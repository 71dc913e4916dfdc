package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"dataaudit/internal/audit"
)

// The streaming route's encode stage. A suspicious record becomes one
// NDJSON line, {"report":{...}}, on the pipeline's serial in-order fold,
// so while one worker encodes the others score alone. The lines are
// appended by hand instead of through encoding/json's reflection, and
// they are byte for byte what json.Encoder writes for a StreamLine
// holding the same ReportJSON: FuzzReportJSON holds the two together,
// including the errors for the floats JSON cannot carry. The buffered
// /audit route still encodes its whole AuditResponse with encoding/json.

// reportRenderer turns a model's RecordReports into their wire form. It
// indexes the model's AttrModels by schema column once, so rendering a
// finding finds its labels without a scan of m.Attrs. A renderer serves
// one request at a time.
type reportRenderer struct {
	m      *audit.Model
	byAttr []*audit.AttrModel // nil where a column has no model
	desc   []byte             // reused description buffer
}

func newReportRenderer(m *audit.Model) *reportRenderer {
	byAttr := make([]*audit.AttrModel, m.Schema.Len())
	for _, am := range m.Attrs {
		if byAttr[am.Class] == nil { // the first wins, as a scan would find it
			byAttr[am.Class] = am
		}
	}
	return &reportRenderer{m: m, byAttr: byAttr}
}

// findingJSON renders a Finding against the model's labels.
func (rr *reportRenderer) findingJSON(f *audit.Finding) FindingJSON {
	attr := rr.m.Schema.Attr(f.Attr)
	out := FindingJSON{
		Attr:       attr.Name,
		Observed:   "?",
		PHat:       f.PHat,
		PObs:       f.PObs,
		N:          f.N,
		ErrorConf:  f.ErrorConf,
		Suggestion: attr.Format(f.Suggestion),
	}
	if am := rr.byAttr[f.Attr]; am != nil {
		if f.Observed >= 0 && f.Observed < len(am.Labels) {
			out.Observed = am.Labels[f.Observed]
		}
		if f.Predicted >= 0 && f.Predicted < len(am.Labels) {
			out.Predicted = am.Labels[f.Predicted]
		}
	}
	return out
}

// reportJSON renders a RecordReport into a ReportJSON of its own.
func (rr *reportRenderer) reportJSON(rep *audit.RecordReport) ReportJSON {
	var out ReportJSON
	rr.fillReport(&out, nil, rep)
	return out
}

// fillReport renders rep into out, reusing the capacity of out.Findings.
// A best finding that is not one of rep.Findings is rendered into *best
// (a new one when best is nil), which out.Best then points at.
func (rr *reportRenderer) fillReport(out *ReportJSON, best *FindingJSON, rep *audit.RecordReport) {
	*out = ReportJSON{
		Row:        rep.Row,
		ID:         rep.ID,
		ErrorConf:  rep.ErrorConf,
		Suspicious: rep.Suspicious,
		Findings:   out.Findings[:0],
	}
	inFindings := -1
	for i := range rep.Findings {
		out.Findings = append(out.Findings, rr.findingJSON(&rep.Findings[i]))
		if rep.Best == &rep.Findings[i] {
			inFindings = i
		}
	}
	if rep.Best != nil {
		if inFindings >= 0 {
			// The scoring paths point Best into Findings; so does the
			// wire form, and appendReportJSON renders it once.
			out.Best = &out.Findings[inFindings]
		} else {
			if best == nil {
				best = new(FindingJSON)
			}
			*best = rr.findingJSON(rep.Best)
			out.Best = best
		}
		rr.desc = rr.m.AppendDescription(rr.desc[:0], rep.Best)
		out.Description = string(rr.desc)
	}
}

// streamEncoder renders the stream route's report lines into one reused
// ReportJSON and one reused line buffer.
type streamEncoder struct {
	rr   *reportRenderer
	rep  ReportJSON
	best FindingJSON
	line []byte
}

// reportLine returns rep's NDJSON line, {"report":{...}} and a newline,
// valid until the next call. On a float JSON cannot carry it returns the
// error json.Encoder would.
func (e *streamEncoder) reportLine(rep *audit.RecordReport) ([]byte, error) {
	e.rr.fillReport(&e.rep, &e.best, rep)
	line, err := appendReportJSON(append(e.line[:0], `{"report":`...), &e.rep)
	if err != nil {
		return nil, err
	}
	e.line = append(line, "}\n"...)
	return e.line, nil
}

// appendReportJSON appends r as encoding/json marshals a ReportJSON:
// fields in declaration order, the omitempty ones left out when empty.
func appendReportJSON(dst []byte, r *ReportJSON) ([]byte, error) {
	var err error
	dst = append(dst, `{"row":`...)
	dst = strconv.AppendInt(dst, int64(r.Row), 10)
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendInt(dst, r.ID, 10)
	dst = append(dst, `,"errorConf":`...)
	if dst, err = appendJSONFloat(dst, r.ErrorConf); err != nil {
		return nil, err
	}
	dst = append(dst, `,"suspicious":`...)
	dst = strconv.AppendBool(dst, r.Suspicious)
	var bestStart, bestEnd int
	if r.Best != nil {
		dst = append(dst, `,"best":`...)
		bestStart = len(dst)
		if dst, err = appendFindingJSON(dst, r.Best); err != nil {
			return nil, err
		}
		bestEnd = len(dst)
	}
	if len(r.Findings) > 0 {
		dst = append(dst, `,"findings":[`...)
		for i := range r.Findings {
			if i > 0 {
				dst = append(dst, ',')
			}
			if &r.Findings[i] == r.Best { // the same finding: the same bytes
				dst = append(dst, dst[bestStart:bestEnd]...)
				continue
			}
			if dst, err = appendFindingJSON(dst, &r.Findings[i]); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	if r.Description != "" {
		dst = append(dst, `,"description":`...)
		dst = appendJSONString(dst, r.Description)
	}
	return append(dst, '}'), nil
}

// appendFindingJSON appends f as encoding/json marshals a FindingJSON.
func appendFindingJSON(dst []byte, f *FindingJSON) ([]byte, error) {
	var err error
	dst = append(dst, `{"attr":`...)
	dst = appendJSONString(dst, f.Attr)
	dst = append(dst, `,"observed":`...)
	dst = appendJSONString(dst, f.Observed)
	dst = append(dst, `,"predicted":`...)
	dst = appendJSONString(dst, f.Predicted)
	for _, kv := range [...]struct {
		key string
		v   float64
	}{{`,"pHat":`, f.PHat}, {`,"pObs":`, f.PObs}, {`,"n":`, f.N}, {`,"errorConf":`, f.ErrorConf}} {
		dst = append(dst, kv.key...)
		if dst, err = appendJSONFloat(dst, kv.v); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `,"suggestion":`...)
	dst = appendJSONString(dst, f.Suggestion)
	return append(dst, '}'), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest round-tripping digits, in exponent form only below 1e-6 or
// from 1e21 on, with a two-digit negative exponent cut to one digit
// (1e-07 → 1e-7). NaN and ±Inf fail with encoding/json's own error.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONString appends s quoted as json.Encoder writes it with its
// default HTML escaping: the bytes below 0x20 and <, > and & escaped,
// U+2028 and U+2029 escaped, and each byte of invalid UTF-8 replaced by
// the escaped U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes appendJSONString copies unescaped.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(0x20); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()
