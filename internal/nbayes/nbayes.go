// Package nbayes implements a naive Bayes classifier — one of the
// alternatives evaluated for the QUIS domain in §5 of the paper
// ("instance based classifiers, naive Bayes classifiers, classification
// rule inducers, and decision trees"). Nominal base attributes use
// Laplace-smoothed frequency estimates; numeric and date attributes use
// per-class Gaussians.
package nbayes

import (
	"fmt"
	"math"
	"sync"

	"dataaudit/internal/dataset"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/stats"
)

// laplace is the additive smoothing constant of the nominal estimates.
const laplace = 1

// Trainer induces naive Bayes models.
type Trainer struct{}

var _ mlcore.Trainer = (*Trainer)(nil)

// nominalModel holds P(value | class) estimates for one attribute.
type nominalModel struct {
	Attr int
	// Cond[class][value] is the smoothed conditional probability, derived
	// from Counts by refit.
	Cond [][]float64
	// Counts[class][value] is the raw weighted value tally Cond derives
	// from.
	Counts [][]float64
}

// gaussModel holds per-class Gaussians for one numeric attribute.
type gaussModel struct {
	Attr        int
	Mu, Sigma   []float64
	SeenByClass []bool
	// Sum, SumSq and W are the per-class raw moments Mu/Sigma derive
	// from.
	Sum, SumSq, W []float64
}

// Model is the trained classifier.
type Model struct {
	K        int
	Priors   []float64
	TotalW   float64
	Nominals []nominalModel
	Gauss    []gaussModel
	// Laplace is the smoothing constant the estimates were fitted with
	// and ClassW the raw class tallies Priors derive from.
	Laplace float64
	ClassW  []float64

	// logs holds the log tables PredictInto reads; unexported, so
	// gob-encoded models round-trip without them and rebuild them on
	// first prediction.
	logs logTables
}

// logTables hoists the logs of the prior and nominal estimates out of
// PredictInto: they are fixed once the model is fitted, so each is
// computed once per model instead of once per row.
type logTables struct {
	once  sync.Once
	prior []float64     // prior[c] = log(Priors[c])
	cond  [][][]float64 // cond[i][c][v] = log(Nominals[i].Cond[c][v])
}

var _ mlcore.Classifier = (*Model)(nil)

// Train implements mlcore.Trainer.
func (t *Trainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	schema := ins.Table.Schema()
	m := &Model{K: ins.K, Laplace: laplace, ClassW: make([]float64, ins.K)}

	for _, c := range ins.Class {
		if c >= 0 {
			m.ClassW[c]++
			m.TotalW++
		}
	}
	if m.TotalW <= 0 {
		return nil, fmt.Errorf("nbayes: no instances with a known class value")
	}

	for _, attr := range ins.Base {
		a := schema.Attr(attr)
		if a.Type == dataset.NominalType {
			nm := nominalModel{Attr: attr, Counts: make([][]float64, ins.K)}
			for c := range nm.Counts {
				nm.Counts[c] = make([]float64, a.NumValues())
			}
			cells := ins.Table.Column(attr)
			for r, c := range ins.Class {
				if c >= 0 && !cells[r].IsNull() {
					nm.Counts[c][cells[r].NomIdx()]++
				}
			}
			m.Nominals = append(m.Nominals, nm)
			continue
		}
		gm := gaussModel{Attr: attr, Sum: make([]float64, ins.K), SumSq: make([]float64, ins.K), W: make([]float64, ins.K)}
		accumGauss(&gm, ins)
		m.Gauss = append(m.Gauss, gm)
	}
	m.refit()
	return m, nil
}

// accumGauss adds the instance set's raw moments for gm's attribute into
// gm.Sum/SumSq/W, iterating rows in order.
func accumGauss(gm *gaussModel, ins *mlcore.Instances) {
	cells := ins.Table.Column(gm.Attr)
	for r, c := range ins.Class {
		if c < 0 || cells[r].IsNull() {
			continue
		}
		x := cells[r].Float()
		gm.Sum[c] += x
		gm.SumSq[c] += x * x
		gm.W[c]++
	}
}

// refit derives every estimate (Priors, Cond, Mu/Sigma) from the raw
// tallies.
func (m *Model) refit() {
	m.Priors = make([]float64, m.K)
	for c := range m.Priors {
		m.Priors[c] = (m.ClassW[c] + m.Laplace) / (m.TotalW + m.Laplace*float64(m.K))
	}
	for i := range m.Nominals {
		nm := &m.Nominals[i]
		nm.Cond = make([][]float64, m.K)
		for c := range nm.Counts {
			total := 0.0
			for _, w := range nm.Counts[c] {
				total += w
			}
			numVals := float64(len(nm.Counts[c]))
			nm.Cond[c] = make([]float64, len(nm.Counts[c]))
			for vIdx, w := range nm.Counts[c] {
				nm.Cond[c][vIdx] = (w + m.Laplace) / (total + m.Laplace*numVals)
			}
		}
	}
	for i := range m.Gauss {
		gm := &m.Gauss[i]
		gm.Mu = make([]float64, m.K)
		gm.Sigma = make([]float64, m.K)
		gm.SeenByClass = make([]bool, m.K)
		for c := 0; c < m.K; c++ {
			if gm.W[c] <= 0 {
				continue
			}
			gm.SeenByClass[c] = true
			gm.Mu[c] = gm.Sum[c] / gm.W[c]
			variance := gm.SumSq[c]/gm.W[c] - gm.Mu[c]*gm.Mu[c]
			if variance < 1e-9 {
				variance = 1e-9
			}
			gm.Sigma[c] = math.Sqrt(variance)
		}
	}
}

// tables returns the model's log tables, building them on first use.
func (m *Model) tables() *logTables {
	t := &m.logs
	t.once.Do(func() {
		t.prior = make([]float64, m.K)
		for c, p := range m.Priors {
			t.prior[c] = math.Log(p)
		}
		t.cond = make([][][]float64, len(m.Nominals))
		for i, nm := range m.Nominals {
			t.cond[i] = make([][]float64, len(nm.Cond))
			for c, cond := range nm.Cond {
				lc := make([]float64, len(cond))
				for v, p := range cond {
					lc[v] = math.Log(p)
				}
				t.cond[i][c] = lc
			}
		}
	})
	return t
}

// PredictInto implements mlcore.Classifier without allocating: the
// caller's buffer doubles as the log-probability workspace, which is then
// normalized in place. The support is the full training weight: naive
// Bayes bases every prediction on the entire training set.
func (m *Model) PredictInto(row []dataset.Value, d *mlcore.Distribution) {
	t := m.tables()
	d.Reset(m.K)
	logp := d.Counts
	copy(logp, t.prior)
	for i, nm := range m.Nominals {
		v := row[nm.Attr]
		if v.IsNull() || !v.IsNominal() {
			continue
		}
		idx := v.NomIdx()
		lc := t.cond[i]
		for c := range logp {
			if idx < len(lc[c]) {
				logp[c] += lc[c][idx]
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
}

var _ mlcore.Checker = (*Model)(nil)

// Check implements mlcore.Checker: the priors and every estimate count k
// classes, and each estimate reads a column of schema other than class —
// a nominal table as wide as the column's domain, a Gaussian over a
// number-like column.
func (m *Model) Check(schema *dataset.Schema, class, k int) error {
	if m.K != k || len(m.Priors) != k || len(m.ClassW) != k {
		return fmt.Errorf("nbayes: priors over %d, %d and %d classes, want %d", m.K, len(m.Priors), len(m.ClassW), k)
	}
	for _, nm := range m.Nominals {
		if err := mlcore.CheckAttr(schema, class, nm.Attr); err != nil {
			return fmt.Errorf("nbayes: %w", err)
		}
		a := schema.Attr(nm.Attr)
		if a.Type != dataset.NominalType || !isTable(nm.Cond, k, a.NumValues()) || !isTable(nm.Counts, k, a.NumValues()) {
			return fmt.Errorf("nbayes: attribute %d (%s): value tables of the wrong shape", nm.Attr, a.Name)
		}
	}
	for _, gm := range m.Gauss {
		if err := mlcore.CheckAttr(schema, class, gm.Attr); err != nil {
			return fmt.Errorf("nbayes: %w", err)
		}
		a := schema.Attr(gm.Attr)
		if !a.IsNumberLike() || len(gm.Mu) != k || len(gm.Sigma) != k || len(gm.SeenByClass) != k ||
			len(gm.Sum) != k || len(gm.SumSq) != k || len(gm.W) != k {
			return fmt.Errorf("nbayes: attribute %d (%s): Gaussians of the wrong shape", gm.Attr, a.Name)
		}
	}
	return nil
}

// isTable reports whether t has rows rows of cols entries each.
func isTable(t [][]float64, rows, cols int) bool {
	if len(t) != rows {
		return false
	}
	for _, r := range t {
		if len(r) != cols {
			return false
		}
	}
	return true
}
