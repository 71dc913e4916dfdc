package audit

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"dataaudit/internal/dataset"
)

// describeSprintf is DescribeFinding's original fmt.Sprintf rendering,
// kept as the reference AppendDescription must equal byte for byte.
func describeSprintf(m *Model, f *Finding) string {
	attr := m.Schema.Attr(f.Attr)
	am := m.attrModelFor(f.Attr)
	observed := "?"
	if f.Observed >= 0 && am != nil {
		observed = am.Labels[f.Observed]
	}
	predicted := ""
	if am != nil {
		predicted = am.Labels[f.Predicted]
	}
	return fmt.Sprintf("%s: observed %s, expected %s (P=%.4f, n=%.0f, error confidence %.2f%%)",
		attr.Name, observed, predicted, f.PHat, f.N, f.ErrorConf*100)
}

// TestAppendDescriptionMatchesSprintf holds AppendDescription (and so
// DescribeFinding) to the fmt.Sprintf format it replaced: nominal,
// numeric and date findings, a null observation, a finding whose
// attribute has no model, and the floats fmt and strconv could disagree
// on in P, n and the error confidence.
func TestAppendDescriptionMatchesSprintf(t *testing.T) {
	lo := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	schema := dataset.MustSchema(
		dataset.NewNominal("BRV", "404", "501", "600"),
		dataset.NewNominal("KBM", "01", "02"),
		dataset.NewNumeric("DISP", 1000, 4000),
		dataset.NewDate("BUILT", lo, lo.AddDate(6, 0, 0)),
	)
	tab := dataset.NewTable(schema)
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 3000; i++ {
		brv := rng.Intn(3)
		tab.AppendRow([]dataset.Value{
			dataset.Nom(brv), dataset.Nom(rng.Intn(2)),
			dataset.Num(1500 + float64(brv)*1000 + rng.NormFloat64()*80),
			dataset.DateValue(lo.AddDate(2*brv, 0, rng.Intn(300))),
		})
	}
	m, err := Induce(tab, Options{MinConfidence: 0.8, SkipClasses: []string{"KBM"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.attrModelFor(1) != nil || m.attrModelFor(2) == nil || m.attrModelFor(3) == nil {
		t.Fatal("want models for DISP and BUILT and none for the skipped KBM")
	}
	floats := []float64{0, 0.5, 0.99995, 1, 123.456789, 1e-7, 1e21, 1e300,
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		-3, 2.5, 1<<52 + 1, 1<<53 - 1, 1 << 53, 1<<53 + 2, -(1<<53 - 1), 0.49999999999999994}

	var findings []Finding
	for c := 0; c < schema.Len(); c++ {
		labels := 2 // observed and predicted indices for the unmodelled column
		if am := m.attrModelFor(c); am != nil {
			labels = len(am.Labels)
		}
		for obs := -1; obs < labels; obs++ {
			findings = append(findings, Finding{Attr: c, Observed: obs, Predicted: (obs + 1 + labels) % labels,
				PHat: 0.9731, N: 120, ErrorConf: 0.875})
		}
	}
	for _, x := range floats {
		findings = append(findings,
			Finding{Attr: 0, Observed: 0, Predicted: 1, PHat: x, N: 10, ErrorConf: 0.5},
			Finding{Attr: 2, Observed: -1, Predicted: 0, PHat: 0.5, N: x, ErrorConf: 0.5},
			Finding{Attr: 3, Observed: 0, Predicted: 1, PHat: 0.5, N: 10, ErrorConf: x},
			Finding{Attr: 1, Observed: 1, Predicted: 0, PHat: x, N: x, ErrorConf: x})
	}
	buf := []byte("prefix|")
	for i := range findings {
		f := &findings[i]
		want := describeSprintf(m, f)
		if got := m.DescribeFinding(f); got != want {
			t.Fatalf("finding %+v:\n got %q\nwant %q", *f, got, want)
		}
		if got := string(m.AppendDescription(buf[:7], f)); got != "prefix|"+want {
			t.Fatalf("AppendDescription does not append to dst: %q", got)
		}
	}
}

// TestAppendFixedMatchesStrconv holds appendFixed to strconv's 'f'
// format at every precision AppendDescription uses, on random bit
// patterns, on values in the ranges findings carry, and on exact binary
// fractions that fall halfway between two outputs.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	xs := []float64{0, math.Copysign(0, -1), 0.5, 2.5, 0.03125, 0.00005, 0.99995, 99.995, 0.000244140625,
		0.00024414062499999997, 1 << 52, 1<<52 - 0.5, 1<<53 - 1, 1 << 53, 1e15, 1.8e15, 9e15, 1e300,
		math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := range 50000 {
		if i%25 == 0 { // mostly far out of the fast path's range, and slow to print
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
		xs = append(xs, rng.Float64(), rng.Float64()*100,
			float64(rng.Intn(1<<20))/float64(uint64(1)<<rng.Intn(40)), -rng.ExpFloat64()*1e3)
	}
	for _, x := range xs {
		for prec := range len(pow10u64) {
			want := strconv.FormatFloat(x, 'f', prec, 64)
			if got := string(appendFixed(nil, x, prec)); got != want {
				t.Fatalf("appendFixed(%v (%#x), %d) = %q, want %q", x, math.Float64bits(x), prec, got, want)
			}
		}
	}
}
