package nbayes

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

func nbSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	return dataset.MustSchema(
		dataset.NewNominal("f1", "x", "y"),
		dataset.NewNumeric("f2", 0, 100),
		dataset.NewNominal("class", "c0", "c1"),
	)
}

func nbInstances(t testing.TB, tab *dataset.Table) *mlcore.Instances {
	t.Helper()
	return mlcore.NewInstances(tab, []int{0, 1}, 2, func(r int) int {
		v := tab.Get(r, 2)
		if v.IsNull() {
			return -1
		}
		return v.NomIdx()
	})
}

// mixedTable: class 0 -> f1=x mostly, f2 ~ N(20, 5); class 1 -> f1=y
// mostly, f2 ~ N(80, 5).
func mixedTable(t testing.TB, n int, seed int64) *dataset.Table {
	t.Helper()
	tab := dataset.NewTable(nbSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		f1 := c
		if rng.Float64() < 0.1 {
			f1 = 1 - f1
		}
		mu := 20.0
		if c == 1 {
			mu = 80
		}
		x := mu + rng.NormFloat64()*5
		if x < 0 {
			x = 0
		}
		if x > 100 {
			x = 100
		}
		tab.AppendRow([]dataset.Value{dataset.Nom(f1), dataset.Num(x), dataset.Nom(c)})
	}
	return tab
}

func TestNaiveBayesLearnsMixedFeatures(t *testing.T) {
	tab := mixedTable(t, 2000, 31)
	model, err := (&Trainer{}).Train(nbInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for r := 0; r < tab.NumRows(); r++ {
		var d mlcore.Distribution
		model.PredictInto(tab.Row(r), &d)
		best, _ := d.Best()
		if best == tab.Get(r, 2).NomIdx() {
			correct++
		}
	}
	if acc := float64(correct) / float64(tab.NumRows()); acc < 0.95 {
		t.Fatalf("accuracy = %g", acc)
	}
}

func TestNaiveBayesSupportIsTrainingWeight(t *testing.T) {
	tab := mixedTable(t, 500, 32)
	model, err := (&Trainer{}).Train(nbInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	model.PredictInto(tab.Row(0), &d)
	if math.Abs(d.N()-500) > 1e-9 {
		t.Fatalf("support = %g, want 500", d.N())
	}
	sum := 0.0
	for c := 0; c < d.K(); c++ {
		sum += d.P(c)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
}

func TestNaiveBayesHandlesNulls(t *testing.T) {
	tab := mixedTable(t, 500, 33)
	for r := 0; r < 100; r++ {
		tab.Set(r, 0, dataset.Null())
		tab.Set(r, 1, dataset.Null())
	}
	model, err := (&Trainer{}).Train(nbInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	// All-null row: prediction falls back to the prior.
	var d mlcore.Distribution
	model.PredictInto([]dataset.Value{dataset.Null(), dataset.Null(), dataset.Null()}, &d)
	if d.N() <= 0 {
		t.Fatalf("null-row prediction must still carry support")
	}
	if p0 := d.P(0); p0 < 0.3 || p0 > 0.7 {
		t.Fatalf("prior-ish prediction expected, got P(0)=%g", p0)
	}
}

func TestNaiveBayesFailsWithoutLabels(t *testing.T) {
	tab := mixedTable(t, 20, 34)
	for r := 0; r < 20; r++ {
		tab.Set(r, 2, dataset.Null())
	}
	if _, err := (&Trainer{}).Train(nbInstances(t, tab)); err == nil {
		t.Fatalf("training without labels must fail")
	}
}

func TestNaiveBayesUnseenClassGaussian(t *testing.T) {
	// One class never observes the numeric attribute: prediction must not
	// produce NaNs.
	tab := dataset.NewTable(nbSchema(t))
	for i := 0; i < 50; i++ {
		tab.AppendRow([]dataset.Value{dataset.Nom(0), dataset.Num(10), dataset.Nom(0)})
		tab.AppendRow([]dataset.Value{dataset.Nom(1), dataset.Null(), dataset.Nom(1)})
	}
	model, err := (&Trainer{}).Train(nbInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	model.PredictInto([]dataset.Value{dataset.Nom(1), dataset.Num(10), dataset.Null()}, &d)
	for c := 0; c < d.K(); c++ {
		if math.IsNaN(d.P(c)) {
			t.Fatalf("NaN probability")
		}
	}
}

// referencePredict is PredictInto as it was before the log tables: a
// math.Log of every prior and of every matched nominal estimate on each
// row, into a fresh distribution. Kept verbatim as the oracle.
func referencePredict(m *Model, row []dataset.Value) mlcore.Distribution {
	var d mlcore.Distribution
	d.Reset(m.K)
	logp := d.Counts
	for c := range logp {
		logp[c] = math.Log(m.Priors[c])
	}
	for _, nm := range m.Nominals {
		v := row[nm.Attr]
		if v.IsNull() || !v.IsNominal() {
			continue
		}
		idx := v.NomIdx()
		for c := range logp {
			if idx < len(nm.Cond[c]) {
				logp[c] += math.Log(nm.Cond[c][idx])
			}
		}
	}
	for _, gm := range m.Gauss {
		v := row[gm.Attr]
		if v.IsNull() || !v.IsNumber() {
			continue
		}
		x := v.Float()
		for c := range logp {
			if gm.SeenByClass[c] {
				logp[c] += math.Log(stats.GaussianPDF(x, gm.Mu[c], gm.Sigma[c]) + 1e-300)
			}
		}
	}
	// Normalize in log space.
	maxLog := math.Inf(-1)
	for _, lp := range logp {
		if lp > maxLog {
			maxLog = lp
		}
	}
	total := 0.0
	for c, lp := range logp {
		p := math.Exp(lp - maxLog)
		d.Counts[c] = p
		total += p
	}
	if total > 0 {
		for c := range d.Counts {
			d.Counts[c] = d.Counts[c] / total * m.TotalW
		}
	}
	d.Total = m.TotalW
	return d
}

// TestPredictIntoMatchesLogFormula holds the table-backed PredictInto bit
// for bit to referencePredict, into one buffer reused across rows —
// including rows with nulls and all-null rows, and on a gob-decoded
// model, which rebuilds its tables on first use.
func TestPredictIntoMatchesLogFormula(t *testing.T) {
	tab := mixedTable(t, 2000, 47)
	// Sprinkle nulls the generator does not produce.
	for r := 0; r < tab.NumRows(); r += 17 {
		tab.Set(r, 0, dataset.Null())
	}
	for r := 0; r < tab.NumRows(); r += 23 {
		tab.Set(r, 1, dataset.Null())
	}
	for r := 0; r < tab.NumRows(); r += 311 {
		tab.Set(r, 0, dataset.Null())
		tab.Set(r, 1, dataset.Null())
	}
	clf, err := (&Trainer{}).Train(nbInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(clf); err != nil {
		t.Fatal(err)
	}
	decoded := &Model{}
	if err := gob.NewDecoder(&buf).Decode(decoded); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"trained": clf.(*Model), "decoded": decoded} {
		row := make([]dataset.Value, tab.NumCols())
		var got mlcore.Distribution
		for r := 0; r < tab.NumRows(); r++ {
			tab.RowInto(r, row)
			want := referencePredict(m, row)
			m.PredictInto(row, &got)
			if math.Float64bits(want.Total) != math.Float64bits(got.Total) || len(want.Counts) != len(got.Counts) {
				t.Fatalf("%s row %d: %+v, want %+v", name, r, got, want)
			}
			for c := range want.Counts {
				if math.Float64bits(want.Counts[c]) != math.Float64bits(got.Counts[c]) {
					t.Fatalf("%s row %d class %d: %v, want %v", name, r, c, got.Counts[c], want.Counts[c])
				}
			}
		}
	}
}

// TestPredictIntoReusedBuffer: a buffer that earlier predictions left
// dirty gets the same answer, bit for bit, as a fresh one — on random
// rows with nulls in either attribute.
func TestPredictIntoReusedBuffer(t *testing.T) {
	tab := mixedTable(t, 1000, 53)
	model, err := (&Trainer{}).Train(nbInstances(t, tab))
	if err != nil {
		t.Fatal(err)
	}
	var d mlcore.Distribution
	rng := rand.New(rand.NewSource(54))
	for i := 0; i < 500; i++ {
		row := []dataset.Value{dataset.Nom(rng.Intn(2)), dataset.Num(rng.Float64() * 100), dataset.Null()}
		if rng.Intn(5) == 0 {
			row[0] = dataset.Null()
		}
		if rng.Intn(5) == 0 {
			row[1] = dataset.Null()
		}
		var want mlcore.Distribution
		model.PredictInto(row, &want)
		model.PredictInto(row, &d)
		if math.Float64bits(want.Total) != math.Float64bits(d.Total) || len(want.Counts) != len(d.Counts) {
			t.Fatalf("row %v: fresh buffer %+v, reused buffer %+v", row, want, d)
		}
		for c := range want.Counts {
			if math.Float64bits(want.Counts[c]) != math.Float64bits(d.Counts[c]) {
				t.Fatalf("row %v class %d: fresh buffer %v, reused buffer %v", row, c, want.Counts[c], d.Counts[c])
			}
		}
	}
}
