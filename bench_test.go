package dataaudit_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment E1–E8 of cmd/experiments' package doc, at
// reduced scale so a full -bench=. run stays tractable), plus
// micro-benchmarks of the hot paths. The full-scale reproductions live in
// cmd/experiments; these benches report the same measures via
// b.ReportMetric so that shape regressions show up in CI timings.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"dataaudit"
)

// benchConfig is a ~1/8-scale base configuration.
func benchConfig(seed int64) dataaudit.PipelineConfig {
	cfg := dataaudit.BaseConfig(seed)
	cfg.DataGen.NumRecords = 1200
	cfg.RuleGen.NumRules = 30
	return cfg
}

// BenchmarkFig3RecordsVsSensitivity is E1: the Figure 3 sweep
// (sensitivity as a function of the number of records).
func BenchmarkFig3RecordsVsSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := dataaudit.RecordsSweep(benchConfig(2003), []float64{400, 1200, 2400}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.Sensitivity, "sens@2400")
		b.ReportMetric(last.Specificity, "spec@2400")
	}
}

// BenchmarkFig4RulesVsSensitivity is E2: the Figure 4 sweep
// (sensitivity as a function of the number of rules).
func BenchmarkFig4RulesVsSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := dataaudit.RulesSweep(benchConfig(2003), []float64{10, 30}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[len(points)-1].Sensitivity, "sens@30rules")
	}
}

// BenchmarkFig5PollutionVsSensitivity is E3: the Figure 5 sweep
// (sensitivity as a function of the pollution factor).
func BenchmarkFig5PollutionVsSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := dataaudit.PollutionSweep(benchConfig(2003), []float64{1, 3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Sensitivity, "sens@x1")
		b.ReportMetric(points[1].Sensitivity, "sens@x3")
	}
}

// BenchmarkSpecificityTable is E4: specificity at the base setting
// (the paper's ≈ 99 % claim).
func BenchmarkSpecificityTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := dataaudit.RunPipeline(benchConfig(2003))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Specificity(), "specificity")
	}
}

// BenchmarkQualityOfCorrection is E5: the quality-of-correction measure on
// the base setting.
func BenchmarkQualityOfCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := dataaudit.RunPipeline(benchConfig(2004))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.QualityOfCorrection(), "qoc")
		b.ReportMetric(res.Sensitivity(), "sensitivity")
	}
}

// BenchmarkQUISAudit is E6: the §6.2 engine-composition audit at the
// minimum embeddable scale (30 000 of the paper's 200 000 records).
func BenchmarkQUISAudit(b *testing.B) {
	sample, err := dataaudit.GenerateQUIS(dataaudit.QUISParams{NumRecords: 30000, Seed: 2003})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := dataaudit.Induce(sample.Data, dataaudit.AuditOptions{MinConfidence: 0.8})
		if err != nil {
			b.Fatal(err)
		}
		res := model.AuditTable(sample.Data)
		b.ReportMetric(float64(res.NumSuspicious()), "suspicious")
	}
}

// BenchmarkClassifierSelection is E7: one pipeline run per classifier
// family (the §5 algorithm-selection step).
func BenchmarkClassifierSelection(b *testing.B) {
	kinds := []dataaudit.InducerKind{
		dataaudit.InducerC45Audit,
		dataaudit.InducerC45,
		dataaudit.InducerID3,
		dataaudit.InducerNaiveBayes,
		dataaudit.InducerOneR,
		dataaudit.InducerPrism,
		dataaudit.InducerKNN,
	}
	for _, kind := range kinds {
		b.Run(string(kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(2005)
				cfg.Audit.Inducer = kind
				res, err := dataaudit.RunPipeline(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Sensitivity(), "sensitivity")
				b.ReportMetric(res.Specificity(), "specificity")
			}
		})
	}
}

// BenchmarkAdjustmentAblation is E8: the audit-adjusted inducer vs. plain
// C4.5 on the same workload.
func BenchmarkAdjustmentAblation(b *testing.B) {
	for _, variant := range []struct {
		name string
		kind dataaudit.InducerKind
	}{
		{"audit-adjusted", dataaudit.InducerC45Audit},
		{"plain-c45", dataaudit.InducerC45},
		{"plain-id3", dataaudit.InducerID3},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(2006)
				cfg.Audit.Inducer = variant.kind
				res, err := dataaudit.RunPipeline(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Sensitivity(), "sensitivity")
				b.ReportMetric(res.Specificity(), "specificity")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths.

// BenchmarkRuleSetGeneration measures §4.1.2 natural-rule-set generation.
func BenchmarkRuleSetGeneration(b *testing.B) {
	cfg := dataaudit.BaseConfig(1)
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := dataaudit.GenerateRuleSet(cfg.Schema, cfg.RuleGen, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataGeneration measures §4.1.4 record generation (records/op
// fixed at 2000).
func BenchmarkDataGeneration(b *testing.B) {
	cfg := dataaudit.BaseConfig(2)
	rng := rand.New(rand.NewSource(3))
	rules, err := dataaudit.GenerateRuleSet(cfg.Schema, cfg.RuleGen, rng)
	if err != nil {
		b.Fatal(err)
	}
	params := cfg.DataGen
	params.NumRecords = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataaudit.GenerateData(cfg.Schema, rules, params, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStructureInduction measures §5 multiple-classification
// induction on 5000 records.
func BenchmarkStructureInduction(b *testing.B) {
	sample, err := dataaudit.GenerateQUIS(dataaudit.QUISParams{NumRecords: 30000, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	table := dataaudit.NewTable(sample.Data.Schema())
	for r := 0; r < 5000; r++ {
		table.AppendRow(sample.Data.Row(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataaudit.Induce(table, dataaudit.AuditOptions{MinConfidence: 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviationDetection measures §5.2 record checking throughput.
func BenchmarkDeviationDetection(b *testing.B) {
	sample, err := dataaudit.GenerateQUIS(dataaudit.QUISParams{NumRecords: 30000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dataaudit.Induce(sample.Data, dataaudit.AuditOptions{MinConfidence: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	row := sample.Data.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.CheckRow(row)
	}
}

// BenchmarkAuditTableParallel measures sharded table scoring against the
// sequential baseline (workers=1 falls back to AuditTable), tracking the
// speedup of the auditd serving path across pool sizes.
func BenchmarkAuditTableParallel(b *testing.B) {
	sample, err := dataaudit.GenerateQUIS(dataaudit.QUISParams{NumRecords: 30000, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	model, err := dataaudit.Induce(sample.Data, dataaudit.AuditOptions{MinConfidence: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			suspicious := 0
			for i := 0; i < b.N; i++ {
				res := model.AuditTableParallel(sample.Data, workers)
				suspicious = res.NumSuspicious()
			}
			b.ReportMetric(float64(suspicious), "suspicious")
			b.ReportMetric(float64(sample.Data.NumRows()*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkSatisfiability measures the §4.1.3 satisfiability test on a
// representative composite formula.
func BenchmarkSatisfiability(b *testing.B) {
	cfg := dataaudit.BaseConfig(6)
	schema := cfg.Schema
	f := dataaudit.And{Subs: []dataaudit.Formula{
		dataaudit.Atom{Kind: dataaudit.EqConst, A: 0, Val: dataaudit.Nom(1)},
		dataaudit.Or{Subs: []dataaudit.Formula{
			dataaudit.Atom{Kind: dataaudit.LtConst, A: 7, Val: dataaudit.Num(100000)},
			dataaudit.Atom{Kind: dataaudit.EqAttr, A: 1, B: 2},
		}},
		dataaudit.Atom{Kind: dataaudit.GtConst, A: 6, Val: dataaudit.Num(11500)},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataaudit.Satisfiable(schema, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkErrorConfidence measures the Definition 7 computation.
func BenchmarkErrorConfidence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dataaudit.ErrorConfidence(0.9994, 0.0001, 16118, 0.95)
	}
}

// BenchmarkPollution measures §4.2 corruption throughput (2000 records/op).
func BenchmarkPollution(b *testing.B) {
	cfg := dataaudit.BaseConfig(7)
	rng := rand.New(rand.NewSource(8))
	clean, err := dataaudit.GenerateData(cfg.Schema, nil, dataaudit.DataGenParams{
		NumRecords: 2000, Start: cfg.DataGen.Start,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataaudit.Pollute(clean, cfg.Plan, rng)
	}
}
