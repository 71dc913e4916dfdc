package dataset

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		NewNominal("color", "red", "green", "blue"),
		NewNumeric("size", 0, 100),
		NewDate("made", MustParseDate("2000-01-01"), MustParseDate("2020-12-31")),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Index("size") != 1 || s.Index("nope") != -1 {
		t.Fatalf("Index broken")
	}
	want := []string{"color", "size", "made"}
	for i, n := range s.Names() {
		if n != want[i] {
			t.Fatalf("Names = %v", s.Names())
		}
	}
}

func TestSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(NewNumeric("a", 0, 1), NewNumeric("a", 0, 1))
	if err == nil {
		t.Fatalf("duplicate attribute names must be rejected")
	}
}

func TestSchemaRejectsEmpty(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Fatalf("empty schema must be rejected")
	}
}

func TestSchemaRejectsInvalidAttribute(t *testing.T) {
	if _, err := NewSchema(NewNumeric("a", 5, 1)); err == nil {
		t.Fatalf("invalid attribute must be rejected")
	}
}

func TestSchemaCheckRow(t *testing.T) {
	s := testSchema(t)
	good := []Value{Nom(0), Num(50), DateValue(MustParseDate("2010-05-05"))}
	if err := s.CheckRow(good); err != nil {
		t.Fatalf("good row rejected: %v", err)
	}
	if err := s.CheckRow(good[:2]); err == nil {
		t.Fatalf("wrong arity accepted")
	}
	bad := []Value{Nom(9), Num(50), Null()}
	if err := s.CheckRow(bad); err == nil {
		t.Fatalf("out-of-domain nominal accepted")
	}
	bad2 := []Value{Nom(0), Num(1e9), Null()}
	if err := s.CheckRow(bad2); err == nil {
		t.Fatalf("out-of-range numeric accepted")
	}
}

func fillTable(t *testing.T, n int) *Table {
	t.Helper()
	s := testSchema(t)
	tab := NewTable(s)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		row := []Value{
			Nom(rng.Intn(3)),
			Num(float64(rng.Intn(101))),
			DateValue(MustParseDate("2010-05-05")),
		}
		tab.AppendRow(row)
	}
	return tab
}

func TestTableAppendAndGet(t *testing.T) {
	tab := fillTable(t, 10)
	if tab.NumRows() != 10 || tab.NumCols() != 3 {
		t.Fatalf("dims = %dx%d", tab.NumRows(), tab.NumCols())
	}
	for r := 0; r < 10; r++ {
		if tab.ID(r) != int64(r) {
			t.Fatalf("IDs must be sequential from 0, got %d at row %d", tab.ID(r), r)
		}
	}
	tab.Set(3, 1, Num(77))
	if tab.Get(3, 1).Float() != 77 {
		t.Fatalf("Set/Get broken")
	}
}

func TestTableAppendArityPanics(t *testing.T) {
	tab := fillTable(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("AppendRow with wrong arity must panic")
		}
	}()
	tab.AppendRow([]Value{Nom(0)})
}

func TestTableRowCopySemantics(t *testing.T) {
	tab := fillTable(t, 3)
	row := tab.Row(0)
	row[0] = Nom(2)
	if tab.Get(0, 0).Equal(Nom(2)) && !tab.Row(0)[0].Equal(row[0]) {
		t.Fatalf("Row must copy")
	}
	buf := make([]Value, 3)
	got := tab.RowInto(1, buf)
	if &got[0] != &buf[0] {
		t.Fatalf("RowInto must reuse the buffer")
	}
}

func TestTableDuplicateAndDelete(t *testing.T) {
	tab := fillTable(t, 5)
	id := tab.DuplicateRow(2)
	if id != 5 {
		t.Fatalf("duplicate should get fresh ID 5, got %d", id)
	}
	if tab.NumRows() != 6 {
		t.Fatalf("NumRows after dup = %d", tab.NumRows())
	}
	for c := 0; c < tab.NumCols(); c++ {
		if !tab.Get(5, c).Equal(tab.Get(2, c)) {
			t.Fatalf("duplicate row differs at col %d", c)
		}
	}
	tab.DeleteRow(0)
	if tab.NumRows() != 5 || tab.ID(0) != 1 {
		t.Fatalf("DeleteRow broken: rows=%d first id=%d", tab.NumRows(), tab.ID(0))
	}
	// A fresh append after delete must not reuse IDs.
	newID := tab.AppendRow(tab.Row(0))
	if newID != 6 {
		t.Fatalf("ID reuse after delete: got %d", newID)
	}
}

func TestTableCloneIndependence(t *testing.T) {
	tab := fillTable(t, 4)
	cl := tab.Clone()
	cl.Set(0, 0, Nom(1))
	cl.AppendRow(tab.Row(1))
	if tab.NumRows() != 4 {
		t.Fatalf("clone append affected original")
	}
	if tab.Get(0, 0).Equal(Nom(1)) && !fillTable(t, 4).Get(0, 0).Equal(Nom(1)) {
		t.Fatalf("clone set affected original")
	}
	if cl.ID(4) != tab.AppendRow(tab.Row(1)) {
		t.Fatalf("clone must carry over nextID so IDs stay unique per lineage")
	}
}

func TestRowIndexByID(t *testing.T) {
	tab := fillTable(t, 5)
	tab.DeleteRow(1)
	idx := tab.RowIndexByID()
	if len(idx) != 4 {
		t.Fatalf("index size = %d", len(idx))
	}
	if idx[0] != 0 || idx[2] != 1 || idx[4] != 3 {
		t.Fatalf("index wrong: %v", idx)
	}
}

func TestTableValidate(t *testing.T) {
	tab := fillTable(t, 3)
	if err := tab.Validate(); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	tab.Set(1, 1, Num(1e12))
	if err := tab.Validate(); err == nil {
		t.Fatalf("out-of-range value must fail validation")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := fillTable(t, 20)
	tab.Set(4, 0, Null())
	tab.Set(5, 1, Null())
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), tab.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() {
		t.Fatalf("row count changed: %d -> %d", tab.NumRows(), back.NumRows())
	}
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			if !back.Get(r, c).Equal(tab.Get(r, c)) {
				t.Fatalf("cell (%d,%d) changed: %v -> %v", r, c, tab.Get(r, c), back.Get(r, c))
			}
		}
	}
}

func TestCSVHeaderMismatch(t *testing.T) {
	s := testSchema(t)
	_, err := ReadCSV(strings.NewReader("a,b,c\n"), s)
	if err == nil {
		t.Fatalf("header mismatch must fail")
	}
}

func TestCSVBadCell(t *testing.T) {
	s := testSchema(t)
	_, err := ReadCSV(strings.NewReader("color,size,made\nred,notanumber,2010-05-05\n"), s)
	if err == nil {
		t.Fatalf("bad numeric cell must fail")
	}
}

func TestGobTableRoundTrip(t *testing.T) {
	tab := fillTable(t, 15)
	tab.Set(2, 2, Null())
	tab.DeleteRow(7)
	b, err := MarshalTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != tab.NumRows() {
		t.Fatalf("rows %d -> %d", tab.NumRows(), back.NumRows())
	}
	for r := 0; r < tab.NumRows(); r++ {
		if back.ID(r) != tab.ID(r) {
			t.Fatalf("IDs not preserved at row %d", r)
		}
		for c := 0; c < tab.NumCols(); c++ {
			if !back.Get(r, c).Equal(tab.Get(r, c)) {
				t.Fatalf("cell (%d,%d) changed", r, c)
			}
		}
	}
	// nextID must survive so appends remain unique.
	if back.AppendRow(tab.Row(0)) != tab.AppendRow(tab.Row(0)) {
		t.Fatalf("nextID not preserved")
	}
}

func TestGobSchemaRoundTrip(t *testing.T) {
	s := testSchema(t)
	var buf bytes.Buffer
	if err := EncodeSchema(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSchema(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("schema len changed")
	}
	for i := range s.Attrs() {
		a, b := s.Attr(i), back.Attr(i)
		if a.Name != b.Name || a.Type != b.Type || a.Min != b.Min || a.Max != b.Max {
			t.Fatalf("attribute %d changed: %+v vs %+v", i, a, b)
		}
		if _, ok := b.Index("red"); a.Type == NominalType && !ok {
			t.Fatalf("decoded nominal lost its index")
		}
	}
}

func TestColumnAccess(t *testing.T) {
	tab := fillTable(t, 5)
	col := tab.Column(1)
	if len(col) != 5 {
		t.Fatalf("Column length = %d", len(col))
	}
	col[0] = Num(42)
	if tab.Get(0, 1).Float() != 42 {
		t.Fatalf("Column must alias storage")
	}
}
