package dataaudit_test

// Runnable examples for the facade's core workflows. go test executes
// them (the Output comments are asserted) and pkg.go.dev renders them
// next to the symbols they are named after.

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"dataaudit"
)

// engineTable builds a small engine relation with one strong dependency
// (BRV determines GBM) and a single planted violation in the last row —
// the shape of the paper's §6.2 QUIS findings, at example scale.
func engineTable() *dataaudit.Table {
	schema := dataaudit.MustSchema(
		dataaudit.NewNominal("BRV", "404", "501"),
		dataaudit.NewNominal("GBM", "901", "911"),
		dataaudit.NewNumeric("DISP", 1000, 5000),
	)
	tab := dataaudit.NewTable(schema)
	for i := 0; i < 120; i++ {
		brv := i % 2
		tab.AppendRow([]dataaudit.Value{
			dataaudit.Nom(brv), dataaudit.Nom(brv), dataaudit.Num(2000 + float64(brv)*1000 + float64(i%7)*10),
		})
	}
	// The deviation: a BRV=404 engine recorded with the 501 gearbox.
	tab.AppendRow([]dataaudit.Value{dataaudit.Nom(0), dataaudit.Nom(1), dataaudit.Num(2030)})
	return tab
}

// ExampleInduce induces a structure model and audits the same table —
// the paper's one-shot workflow: every attribute gets a classifier, the
// planted violation is flagged with its error confidence and a proposed
// correction.
func ExampleInduce() {
	tab := engineTable()
	model, err := dataaudit.Induce(tab, dataaudit.AuditOptions{MinConfidence: 0.8})
	if err != nil {
		log.Fatal(err)
	}

	res := model.AuditTable(tab)
	for _, rep := range res.Suspicious() { // ranked by error confidence
		fmt.Printf("row %d: %s\n", rep.Row, model.DescribeFinding(rep.Best))
	}
	fmt.Printf("suspicious: %d of %d\n", res.NumSuspicious(), tab.NumRows())
	// Output:
	// row 120: GBM: observed 911, expected 901 (P=0.9836, n=61, error confidence 85.96%)
	// suspicious: 1 of 121
}

// ExampleOpenRegistry publishes a model into a disk-backed registry and
// loads it back — the §2.2 asynchronous workflow: induce once, score
// anywhere.
func ExampleOpenRegistry() {
	dir, err := os.MkdirTemp("", "registry")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	reg, err := dataaudit.OpenRegistry(dir, dataaudit.RegistryCacheSize(4))
	if err != nil {
		log.Fatal(err)
	}

	model, err := dataaudit.Induce(engineTable(), dataaudit.AuditOptions{})
	if err != nil {
		log.Fatal(err)
	}
	meta, err := reg.Publish("engines", model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published %s v%d (%d attribute models)\n", meta.Name, meta.Version, meta.NumAttrModels)

	loaded, meta2, err := reg.Get("engines")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded v%d, schema %v\n", meta2.Version, loaded.Schema.Names())
	// Output:
	// published engines v1 (3 attribute models)
	// loaded v1, schema [BRV GBM DISP]
}

// ExampleAuditModel_AuditStream scores a CSV stream with bounded memory:
// rows flow from the decoder through the chunked scorer without ever
// materializing a table, and the result carries running counts plus the
// top-K ranking.
func ExampleAuditModel_AuditStream() {
	model, err := dataaudit.Induce(engineTable(), dataaudit.AuditOptions{MinConfidence: 0.8})
	if err != nil {
		log.Fatal(err)
	}

	csv := "BRV,GBM,DISP\n" +
		"404,901,2010\n" +
		"501,911,3050\n" +
		"404,911,2020\n" + // violates BRV=404 → GBM=901
		"501,911,3000\n"
	src, err := dataaudit.NewCSVSource(strings.NewReader(csv), model.Schema)
	if err != nil {
		log.Fatal(err)
	}

	res, err := model.AuditStream(src, dataaudit.StreamOptions{TopK: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checked %d rows, %d suspicious\n", res.RowsChecked, res.NumSuspicious)
	for _, rep := range res.Top {
		fmt.Printf("row %d: %s\n", rep.Row, model.DescribeFinding(rep.Best))
	}
	// Output:
	// checked 4 rows, 1 suspicious
	// row 2: GBM: observed 911, expected 901 (P=0.9836, n=61, error confidence 85.96%)
}

// Example_quickstart is the complete data-auditing loop: it builds a small
// parts relation, states two domain rules, generates clean records that
// follow them (§4.1.4), corrupts a few cells with a logged pollution run
// (§4.2), induces the structure model with the audit-adjusted C4.5 (§5)
// and prints the suspicious records ranked by error confidence together
// with the proposed corrections (§5.3).
//
//	go test -run Example_quickstart -v .
func Example_quickstart() {
	// 1. The target relation: three code attributes and a mileage.
	schema := dataaudit.MustSchema(
		dataaudit.NewNominal("MODEL", "sedan", "wagon", "coupe"),
		dataaudit.NewNominal("ENGINE", "E20", "E30", "D25"),
		dataaudit.NewNominal("FUEL", "petrol", "diesel"),
		dataaudit.NewNumeric("KM", 0, 300000),
	)

	// 2. Two domain dependencies as TDG-rules (Definition 3):
	//    coupes always carry the E30 engine, and D25 engines burn diesel.
	rules := []dataaudit.Rule{
		{
			Premise:    dataaudit.Atom{Kind: dataaudit.EqConst, A: 0, Val: schema.Attr(0).MustNominal("coupe")},
			Conclusion: dataaudit.Atom{Kind: dataaudit.EqConst, A: 1, Val: schema.Attr(1).MustNominal("E30")},
		},
		{
			Premise:    dataaudit.Atom{Kind: dataaudit.EqConst, A: 1, Val: schema.Attr(1).MustNominal("D25")},
			Conclusion: dataaudit.Atom{Kind: dataaudit.EqConst, A: 2, Val: schema.Attr(2).MustNominal("diesel")},
		},
	}
	if ok, err := dataaudit.NaturalRuleSet(schema, rules); err != nil || !ok {
		log.Fatalf("rules are not a natural rule set: %v", err)
	}

	// 3. Generate 5000 clean records that follow the rules.
	rng := rand.New(rand.NewSource(42))
	clean, err := dataaudit.GenerateData(schema, rules, dataaudit.DataGenParams{NumRecords: 5000}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d clean records\n", clean.NumRows())

	// 4. Controlled corruption: wrong values and nulls, ~2% of records.
	plan := dataaudit.PollutionPlan{
		Cell: []dataaudit.ConfiguredPolluter{
			{Prob: 0.015, P: &dataaudit.WrongValuePolluter{}},
			{Prob: 0.005, P: &dataaudit.NullValuePolluter{}},
		},
	}
	dirty, logbook := dataaudit.Pollute(clean, plan, rng)
	fmt.Printf("polluted table: %d corruption events on %d records\n",
		len(logbook.Events), len(logbook.CorruptedIDs()))

	// 5. Induce the structure model and audit the dirty table.
	model, err := dataaudit.Induce(dirty, dataaudit.AuditOptions{MinConfidence: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	suspicious := model.AuditTable(dirty).Suspicious()
	fmt.Printf("audit: %d suspicious records\n\n", len(suspicious))

	// 6. Show the top findings with corrections, and how many are real.
	truth := logbook.CorruptedIDs()
	hits := 0
	for i, rep := range suspicious {
		if truth[rep.ID] {
			hits++
		}
		if i < 5 {
			marker := "false alarm"
			if truth[rep.ID] {
				marker = "real error"
			}
			fmt.Printf("%d. record %d (%s), confidence %.1f%%\n   %s\n",
				i+1, rep.ID, marker, rep.ErrorConf*100, model.DescribeFinding(rep.Best))
		}
	}
	if len(suspicious) > 0 {
		fmt.Printf("\n%d of %d flagged records are logged corruptions\n", hits, len(suspicious))
	}
	// Output:
	// generated 5000 clean records
	// polluted table: 116 corruption events on 116 records
	// audit: 20 suspicious records
	//
	// 1. record 2050 (real error), confidence 98.6%
	//    ENGINE: observed ?, expected E30 (P=0.9925, n=1537, error confidence 98.61%)
	// 2. record 4015 (real error), confidence 98.6%
	//    ENGINE: observed ?, expected E30 (P=0.9925, n=1537, error confidence 98.61%)
	// 3. record 4342 (real error), confidence 98.6%
	//    ENGINE: observed ?, expected E30 (P=0.9925, n=1537, error confidence 98.61%)
	// 4. record 1489 (real error), confidence 98.1%
	//    ENGINE: observed D25, expected E30 (P=0.9925, n=1537, error confidence 98.10%)
	// 5. record 1804 (real error), confidence 98.1%
	//    ENGINE: observed D25, expected E30 (P=0.9925, n=1537, error confidence 98.10%)
	//
	// 20 of 20 flagged records are logged corruptions
}
