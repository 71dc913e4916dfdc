package evalx

import (
	"fmt"
	"math/rand"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/pollute"
	"dataaudit/internal/tdg"
)

// Config describes one full test-environment run (Figure 2): test data
// generation parameters, the pollution plan, and the auditing options.
type Config struct {
	// Seed drives every stochastic stage; identical configs reproduce
	// identical results.
	Seed int64
	// Schema is the target relation.
	Schema *dataset.Schema
	// Rules, when non-nil, are used instead of generating a rule set.
	Rules []tdg.Rule
	// RuleGen parameterizes rule generation when Rules is nil.
	RuleGen tdg.RuleGenParams
	// DataGen parameterizes record generation.
	DataGen tdg.DataGenParams
	// Plan is the pollution configuration.
	Plan pollute.Plan
	// Audit configures structure induction and deviation detection.
	Audit audit.Options
}

// Result captures everything a test-environment run measures.
type Result struct {
	// Confusion is the record-level error-detection matrix (§4.3).
	Confusion Confusion
	// Correction is the before/after correction matrix (§4.3).
	Correction CorrectionMatrix
	// NumRules is the size of the generated rule set.
	NumRules int
	// NumRecords is the clean table size; NumDirty the polluted table size.
	NumRecords, NumDirty int
	// NumCorrupted is the ground-truth number of erroneous records present
	// in the dirty table.
	NumCorrupted int
	// NumSuspicious is the number of records the tool marked.
	NumSuspicious int
	// GenTime/PolluteTime/InduceTime/CheckTime are stage wall times.
	GenTime, PolluteTime, InduceTime, CheckTime time.Duration
	// Breakdown splits detection quality per corruption kind.
	Breakdown []KindBreakdown
}

// Sensitivity is shorthand for the confusion matrix's sensitivity.
func (r *Result) Sensitivity() float64 { return r.Confusion.Sensitivity() }

// Specificity is shorthand for the confusion matrix's specificity.
func (r *Result) Specificity() float64 { return r.Confusion.Specificity() }

// QualityOfCorrection is shorthand for the correction improvement.
func (r *Result) QualityOfCorrection() float64 { return r.Correction.Improvement() }

// Run executes generate → pollute → induce → check → evaluate.
//
// Following the paper's test setup (§6.1 audits the very table it
// induced from; §8 demands the tool "work ... when there is only a single
// database which serves both for training and data audit"), structure
// induction runs on the *polluted* table.
func Run(cfg Config) (*Result, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("evalx: config needs a schema")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	// 1. Rule set.
	rules := cfg.Rules
	if rules == nil {
		var err error
		rules, err = tdg.GenerateRuleSet(cfg.Schema, cfg.RuleGen, rng)
		if err != nil {
			return nil, fmt.Errorf("evalx: rule generation: %w", err)
		}
	}
	res.NumRules = len(rules)

	// 2. Artificial clean data.
	t0 := time.Now()
	clean, err := tdg.Generate(cfg.Schema, rules, cfg.DataGen, rng)
	if err != nil {
		return nil, fmt.Errorf("evalx: data generation: %w", err)
	}
	res.GenTime = time.Since(t0)
	res.NumRecords = clean.NumRows()

	// 3. Controlled corruption.
	t0 = time.Now()
	dirty, log := pollute.Run(clean, cfg.Plan, rng)
	res.PolluteTime = time.Since(t0)
	res.NumDirty = dirty.NumRows()

	// 4. Structure induction + deviation detection.
	model, err := audit.Induce(dirty, cfg.Audit)
	if err != nil {
		return nil, fmt.Errorf("evalx: induction: %w", err)
	}
	res.InduceTime = model.InduceTime
	auditRes := model.AuditTable(dirty)
	res.CheckTime = auditRes.CheckTime
	res.NumSuspicious = auditRes.NumSuspicious()

	// 5. Evaluation against the logged ground truth.
	res.Confusion = Evaluate(dirty, log, auditRes)
	res.NumCorrupted = res.Confusion.TP + res.Confusion.FN
	res.Breakdown = EvaluateByKind(dirty, log, auditRes)
	corrected := model.ApplyCorrections(dirty, auditRes)
	res.Correction = EvaluateCorrection(clean, dirty, corrected)
	return res, nil
}

// Evaluate joins the tool's verdicts with the pollution log's ground truth
// into the §4.3 confusion matrix. Records deleted by the duplicator are not
// part of the dirty table and therefore outside the matrix (a record-
// marking tool cannot flag an absent record). Every row of dirty is one
// record of the matrix, whether or not res keeps a report for it.
func Evaluate(dirty *dataset.Table, log *pollute.Log, res *audit.Result) Confusion {
	corrupted := log.CorruptedIDs()
	var c Confusion
	for row, rep := range res.ByRow(dirty.NumRows()) {
		bad, flagged := corrupted[dirty.ID(row)], rep != nil && rep.Suspicious
		switch {
		case bad && flagged:
			c.TP++
		case bad && !flagged:
			c.FN++
		case !bad && flagged:
			c.FP++
		default:
			c.TN++
		}
	}
	return c
}

// EvaluateCorrection fills the §4.3 before/after matrix by comparing each
// dirty record and its corrected version against the clean original.
// Records without a 1:1 clean counterpart (spurious duplicates) are skipped
// — they have no "correct" state to compare against.
func EvaluateCorrection(clean, dirty, corrected *dataset.Table) CorrectionMatrix {
	cleanIdx := clean.RowIndexByID()
	var m CorrectionMatrix
	for r := 0; r < dirty.NumRows(); r++ {
		cr, ok := cleanIdx[dirty.ID(r)]
		if !ok {
			continue
		}
		before := rowsEqual(clean, cr, dirty, r)
		after := rowsEqual(clean, cr, corrected, r)
		switch {
		case before && after:
			m.A++
		case before && !after:
			m.B++
		case !before && after:
			m.C++
		default:
			m.D++
		}
	}
	return m
}

func rowsEqual(a *dataset.Table, ra int, b *dataset.Table, rb int) bool {
	for c := 0; c < a.NumCols(); c++ {
		if !a.Get(ra, c).Equal(b.Get(rb, c)) {
			return false
		}
	}
	return true
}
