package dataset

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// contractRows is how many rows every source in TestSourceContract holds;
// contractBadAt is how many clean rows precede the malformed record of
// its failing variant.
const (
	contractRows  = 10
	contractBadAt = 4
)

// contractTable is the relation every source in TestSourceContract
// renders: both nominal and numeric columns, with a null in each.
func contractTable() *Table {
	tab := NewTable(sourceSchema())
	for i := 0; i < contractRows; i++ {
		row := []Value{Nom(i % 2), Nom(i / 2 % 2), Num(1000 + float64(i)*100.5)}
		if i%4 == 3 {
			row[i%3] = Null()
		}
		tab.AppendRow(row)
	}
	return tab
}

// contractSource is one source under the contract: open builds it over
// the fixture's rows, openBad over the rows with a malformed record after
// the first contractBadAt (nil when the source cannot fail).
type contractSource struct {
	name    string
	ids     []int64 // the record IDs the rows must carry
	open    func(t *testing.T) RowSource
	openBad func(t *testing.T) RowSource
	badIn   string // substring of the malformed record's error
}

// spliceLines returns lines with bad inserted after the first k entries.
func spliceLines(lines []string, k int, bad string) []string {
	return slices.Concat(lines[:k:k], []string{bad}, lines[k:])
}

func contractSources(t *testing.T, tab *Table) []contractSource {
	s := tab.Schema()
	var csvBuf, jsonlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, tab); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonlBuf, tab); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSuffix(csvBuf.String(), "\n"), "\n")
	jsonlLines := strings.Split(strings.TrimSuffix(jsonlBuf.String(), "\n"), "\n")
	var rendered [][]string
	for r := 0; r < tab.NumRows(); r++ {
		row := make([]string, s.Len())
		for c, a := range s.Attrs() {
			row[c] = a.Format(tab.Get(r, c))
		}
		rendered = append(rendered, row)
	}
	// The table source carries the IDs of a table whose first row was
	// deleted, so preserved IDs differ from row indices.
	shifted := NewTable(s)
	shifted.AppendRow(tab.Row(0))
	for r := 0; r < tab.NumRows(); r++ {
		shifted.AppendRow(tab.Row(r))
	}
	shifted.DeleteRow(0)

	rowIDs := make([]int64, tab.NumRows())
	for i := range rowIDs {
		rowIDs[i] = int64(i)
	}
	body := func(lines []string) string { return strings.Join(lines, "\n") + "\n" }
	badCSV := body(spliceLines(csvLines, 1+contractBadAt, "404,901"))
	badJSONL := body(spliceLines(jsonlLines, contractBadAt, "null"))
	badRows := slices.Concat(rendered[:contractBadAt:contractBadAt], [][]string{{"501", "911"}}, rendered[contractBadAt:])

	var sources []contractSource
	for _, bound := range []int64{0, 1 << 10} {
		suffix := map[bool]string{false: "unbounded", true: "bounded"}[bound > 0]
		openCSV := func(t *testing.T, body string) RowSource {
			src, err := newCSVSource(strings.NewReader(body), s, bound)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
		openJSONL := func(t *testing.T, body string) RowSource {
			if bound == 0 {
				return NewJSONLSource(strings.NewReader(body), s)
			}
			src, err := NewBoundedJSONLSource(strings.NewReader(body), s, bound)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
		sources = append(sources,
			contractSource{
				name:    "csv/" + suffix,
				ids:     rowIDs,
				open:    func(t *testing.T) RowSource { return openCSV(t, csvBuf.String()) },
				openBad: func(t *testing.T) RowSource { return openCSV(t, badCSV) },
				badIn:   "line 6 ",
			},
			contractSource{
				name:    "jsonl/" + suffix,
				ids:     rowIDs,
				open:    func(t *testing.T) RowSource { return openJSONL(t, jsonlBuf.String()) },
				openBad: func(t *testing.T) RowSource { return openJSONL(t, badJSONL) },
				badIn:   "line 5:",
			})
	}
	return append(sources,
		contractSource{
			name: "table",
			ids:  []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			open: func(*testing.T) RowSource { return NewTableSource(shifted) },
		},
		contractSource{
			name:    "string-rows",
			ids:     rowIDs,
			open:    func(*testing.T) RowSource { return NewStringRowsSource(s, rendered) },
			openBad: func(*testing.T) RowSource { return NewStringRowsSource(s, badRows) },
			badIn:   "line 5 ",
		})
}

// requireContractRows fails unless the chunk holds the fixture's first
// rows with the given IDs, column-aligned.
func requireContractRows(t *testing.T, ck *ColumnChunk, tab *Table, ids []int64) {
	t.Helper()
	requireChunkAligned(t, ck)
	if ck.Rows() != len(ids) {
		t.Fatalf("chunk holds %d rows, want %d", ck.Rows(), len(ids))
	}
	for r := 0; r < ck.Rows(); r++ {
		if ck.ID(r) != ids[r] {
			t.Fatalf("row %d: ID %d, want %d", r, ck.ID(r), ids[r])
		}
		for c := 0; c < tab.NumCols(); c++ {
			if got, want := ck.Value(r, c), tab.Get(r, c); got != want {
				t.Fatalf("row %d col %d: %v, want %v", r, c, got, want)
			}
		}
	}
}

// TestSourceContract holds every RowSource to the NextChunk contract:
// (n > 0, nil) while rows flow, then a sticky (0, io.EOF); no call
// appends more than max rows and max 0 appends none; the rows carry the
// right values and IDs and the chunk stays aligned; and the clean rows
// before a malformed record stay in the chunk beside its error.
func TestSourceContract(t *testing.T) {
	tab := contractTable()
	for _, cs := range contractSources(t, tab) {
		t.Run(cs.name, func(t *testing.T) {
			for _, max := range []int{1, 3, 64} {
				src := cs.open(t)
				ck := NewColumnChunk(src.Schema())
				if n, err := src.NextChunk(ck, 0); n != 0 || err != nil || ck.Rows() != 0 {
					t.Fatalf("max 0: %d rows, err %v, chunk holds %d", n, err, ck.Rows())
				}
				for {
					before := ck.Rows()
					n, err := src.NextChunk(ck, max)
					if ck.Rows() != before+n {
						t.Fatalf("max %d: returned %d rows, chunk grew by %d", max, n, ck.Rows()-before)
					}
					requireChunkAligned(t, ck)
					if err == io.EOF {
						if n != 0 {
							t.Fatalf("max %d: io.EOF with %d rows", max, n)
						}
						break
					}
					if err != nil || n <= 0 || n > max {
						t.Fatalf("max %d: (%d, %v) while rows flow", max, n, err)
					}
				}
				requireContractRows(t, ck, tab, cs.ids)
				for _, m := range []int{max, 0} {
					if n, err := src.NextChunk(ck, m); n != 0 || (m > 0 && err != io.EOF) || (m == 0 && err != nil) {
						t.Fatalf("after the end, max %d: (%d, %v)", m, n, err)
					}
				}
			}

			if cs.openBad == nil {
				return
			}
			src := cs.openBad(t)
			ck := NewColumnChunk(src.Schema())
			n, err := src.NextChunk(ck, 64)
			if n != contractBadAt || err == nil || !strings.Contains(err.Error(), cs.badIn) {
				t.Fatalf("malformed record: (%d, %v), want (%d, an error naming %q)", n, err, contractBadAt, cs.badIn)
			}
			requireContractRows(t, ck, tab, cs.ids[:contractBadAt])
		})
	}
}
