// Command audit is the data auditing tool of §5: it induces a structure
// model (one classifier per attribute, audit-adjusted C4.5 by default),
// detects deviations, ranks them by error confidence and proposes
// corrections. Structure induction and checking can run separately (§2.2):
//
//	# one-shot: induce on the table and audit it
//	audit -schema engine.schema -in dirty.csv -top 20
//
//	# asynchronous: induce offline, check new loads online
//	audit -schema engine.schema -in history.csv -induce -model model.bin
//	audit -schema engine.schema -in tonight.csv -model model.bin -top 50
//
//	# bounded memory: stream an arbitrarily large load through a saved
//	# model without ever materializing the table
//	audit -schema engine.schema -in warehouse.csv -model model.bin -stream -top 50
//
//	# write corrections
//	audit -schema engine.schema -in dirty.csv -corrected fixed.csv
//
//	# machine-readable run summary: append the audit's metrics in
//	# Prometheus text format (same series auditd exports at /metrics)
//	audit -schema engine.schema -in dirty.csv -stats
//
//	# JSONL input (by extension or -format)
//	audit -schema engine.schema -in tonight.jsonl -model model.bin
//
//	# scan the batch for exact and near-duplicate records alongside the
//	# deviation audit
//	audit -schema engine.schema -in dirty.csv -dedup
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/audittree"
	"dataaudit/internal/dataset"
	"dataaudit/internal/dedup"
	"dataaudit/internal/obs"
)

func main() {
	var (
		schemaPath = flag.String("schema", "", "schema definition file (required)")
		in         = flag.String("in", "", "input CSV or JSONL file (required)")
		induceOnly = flag.Bool("induce", false, "only induce the structure model and save it (-model required)")
		modelPath  = flag.String("model", "", "model file to save (-induce) or load (checking)")
		minConf    = flag.Float64("minconf", 0.8, "minimal error confidence for suspicious records")
		bins       = flag.Int("bins", 5, "equal-frequency bins for numeric class attributes")
		inducer    = flag.String("inducer", string(audit.InducerC45Audit),
			"induction algorithm: c45-audit, c45, id3, nbayes, knn, 1r, prism")
		top       = flag.Int("top", 20, "number of top-ranked suspicious records to print")
		corrected = flag.String("corrected", "", "optional output CSV with corrections applied (§5.3)")
		filter    = flag.String("filter", "", "rule filter: paper, reachable, none "+
			"(default: paper for one-shot audits, reachable for -induce, since a model trained on "+
			"clean history needs its pure rules to flag deviations in future loads)")
		stream  = flag.Bool("stream", false, "stream the input through a saved -model with bounded memory (no table materialization)")
		chunk   = flag.Int("chunk", 1024, "rows per scoring chunk in -stream mode")
		workers = flag.Int("workers", 0, "scoring workers (0 = NumCPU)")
		stats   = flag.Bool("stats", false, "append a one-shot metric summary of the run in Prometheus text format (the same series auditd exports at /metrics)")

		format    = flag.String("format", "auto", "input format of -in: auto (by extension), csv or jsonl")
		dedupScan = flag.Bool("dedup", false, "also scan the batch for exact and near-duplicate records (needs the materialized table; incompatible with -stream)")
	)
	flag.Parse()
	if *schemaPath == "" || *in == "" {
		fail("need -schema and -in")
	}
	schema, err := dataset.ParseSchemaFile(*schemaPath)
	if err != nil {
		fail("%v", err)
	}

	failOnHeaderMismatch := func(err error) {
		// A reordered or renamed header used to be the silent
		// column-misalignment trap; surface the offending columns and the
		// expected order instead of a bare parse error.
		if errors.Is(err, dataset.ErrHeader) {
			fail("%v\n       expected column order: %s", err, strings.Join(schema.Names(), ","))
		}
	}

	openSource := func() (dataset.RowSource, io.Closer) {
		src, closer, err := openInput(schema, *in, *format)
		if err != nil {
			failOnHeaderMismatch(err)
			fail("%v", err)
		}
		return src, closer
	}

	if *induceOnly && *modelPath == "" {
		fail("-induce needs -model")
	}
	if *stream {
		// The streaming path never loads the table: rows flow straight
		// from the decoder into the chunked scorer. That also means
		// there is nothing to induce from — a saved model is required.
		if *modelPath == "" || *induceOnly {
			fail("-stream needs a saved -model (structure induction requires the full table)")
		}
		if *corrected != "" {
			fail("-corrected needs the materialized table; drop -stream")
		}
		if *dedupScan {
			fail("-dedup needs the materialized table; drop -stream")
		}
		model, err := audit.Load(*modelPath)
		if err != nil {
			fail("loading model: %v", err)
		}
		src, closer := openSource()
		defer closer.Close()
		runStream(model, src, *top, *chunk, *workers, *stats)
		return
	}

	src, closer := openSource()
	table, err := dataset.ReadAll(src)
	closer.Close()
	if err != nil {
		failOnHeaderMismatch(err)
		fail("%v", err)
	}

	var model *audit.Model
	if *modelPath != "" && !*induceOnly {
		// An explicitly named model that cannot be loaded is an error —
		// silently falling back to inducing from the (possibly dirty)
		// input would audit the data against itself and mask exactly the
		// deviations the saved model was meant to flag.
		if model, err = audit.Load(*modelPath); err != nil {
			fail("loading model: %v", err)
		}
	}
	if model == nil {
		opts := audit.Options{
			MinConfidence: *minConf,
			Bins:          *bins,
			Inducer:       audit.InducerKind(*inducer),
		}
		switch *filter {
		case "":
			if *induceOnly {
				opts.Filter = audittree.FilterReachableOnly
			}
		case "paper":
			opts.Filter = audittree.FilterPaper
		case "reachable":
			opts.Filter = audittree.FilterReachableOnly
		case "none":
			opts.Filter = audittree.FilterNone
		default:
			fail("unknown -filter %q", *filter)
		}
		if model, err = audit.Induce(table, opts); err != nil {
			fail("induction: %v", err)
		}
		fmt.Fprintf(os.Stderr, "induced structure model for %d attributes from %d records in %v\n",
			len(model.Attrs), model.TrainRows, model.InduceTime)
		if *induceOnly {
			if err := audit.Save(*modelPath, model); err != nil {
				fail("saving model: %v", err)
			}
			fmt.Fprintf(os.Stderr, "saved model to %s\n", *modelPath)
			return
		}
	}

	res := model.AuditTableParallel(table, *workers)
	sus := res.Suspicious()
	fmt.Printf("checked %d records in %v: %d suspicious (error confidence >= %.2f)\n",
		table.NumRows(), res.CheckTime, len(sus), model.Opts.MinConfidence)
	for i, rep := range sus {
		if i >= *top {
			fmt.Printf("... and %d more\n", len(sus)-*top)
			break
		}
		fmt.Printf("%4d. record id=%d  confidence %.2f%%\n", i+1, rep.ID, rep.ErrorConf*100)
		fmt.Printf("      %s\n", model.DescribeFinding(rep.Best))
		for fi := range rep.Findings {
			f := &rep.Findings[fi]
			if f == rep.Best || f.ErrorConf < model.Opts.MinConfidence/2 {
				continue
			}
			fmt.Printf("      also: %s\n", model.DescribeFinding(f))
		}
		// §5.3 root-cause hypothesis: the single substitution that best
		// explains the record.
		if causes := model.ExplainRow(table.Row(rep.Row)); len(causes) > 0 && causes[0].Clears {
			fmt.Printf("      likely fix: %s\n", model.DescribeRootCause(&causes[0]))
		}
	}

	if *dedupScan {
		printDedup(schema, table)
	}

	if *corrected != "" {
		fixed := model.ApplyCorrections(table, res)
		if err := dataset.WriteCSVFile(*corrected, fixed); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote corrected table to %s\n", *corrected)
	}

	if *stats {
		susCount, tallies := model.TallyResult(res)
		printStats(model, int64(table.NumRows()), susCount, res.CheckTime, tallies)
	}
}

// printStats renders one audit run as Prometheus text exposition,
// through the same metric structs auditd feeds from the monitor — the
// series names and label shapes match a scraped /metrics exactly, so the
// same parsing works on a CLI run and a daemon scrape.
func printStats(model *audit.Model, rows, suspicious int64, checkTime time.Duration, tallies []audit.AttrTally) {
	reg := obs.NewRegistry()
	mets := obs.NewAuditMetrics(reg)
	const label = "cli" // one-shot runs have no registry model name
	mets.RowsScored.With(label).Add(uint64(rows))
	mets.RowsSuspicious.With(label).Add(uint64(suspicious))
	if rows > 0 {
		mets.WindowSuspiciousRate.With(label).Set(float64(suspicious) / float64(rows))
	}
	if checkTime > 0 {
		// Throughput only exists for a finished one-shot run, so this
		// gauge is CLI-only; the daemon's equivalent is a rate() over
		// dataaudit_rows_scored_total.
		reg.NewGauge("dataaudit_audit_rows_per_second",
			"Scoring throughput of this one-shot audit run.").
			Set(float64(rows) / checkTime.Seconds())
	}
	for i := range tallies {
		t := &tallies[i]
		name := model.Schema.Attr(t.Attr).Name
		mets.AttrDeviations.With(label, name).Add(uint64(t.Deviations))
		mets.AttrSuspicious.With(label, name).Add(uint64(t.Suspicious))
	}
	if err := reg.WritePrometheus(os.Stdout); err != nil {
		fail("%v", err)
	}
}

// openInput opens the -in file as a row source in the requested (or
// extension-derived) format.
func openInput(schema *dataset.Schema, in, format string) (dataset.RowSource, io.Closer, error) {
	switch format {
	case "auto":
		switch strings.ToLower(filepath.Ext(in)) {
		case ".jsonl", ".ndjson":
			format = "jsonl"
		default:
			format = "csv"
		}
	case "csv", "jsonl":
	default:
		return nil, nil, fmt.Errorf("unknown -format %q (want auto, csv or jsonl)", format)
	}
	if format == "jsonl" {
		return dataset.OpenJSONLFileSource(in, schema)
	}
	return dataset.OpenCSVFileSource(in, schema)
}

// printDedup runs the duplicate scan over the audited table and prints
// its summary plus the first duplicate groups.
func printDedup(schema *dataset.Schema, table *dataset.Table) {
	dres, err := dedup.Detect(table, dedup.Options{})
	if err != nil {
		fail("dedup: %v", err)
	}
	keyNames := make([]string, 0, len(dres.Key))
	for _, c := range dres.Key {
		keyNames = append(keyNames, schema.Attr(c).Name)
	}
	key := strings.Join(keyNames, ",")
	if dres.KeyDiscovered {
		key += " (discovered)"
	}
	fmt.Printf("duplicate scan: %d records, blocking key [%s]: %d exact + %d near groups, %d duplicate rows (%.2f%%)\n",
		dres.Rows, key, dres.ExactGroups, dres.NearGroups, dres.DuplicateRows, dres.DuplicateRate()*100)
	if dres.BlocksCapped > 0 {
		fmt.Printf("  note: %d oversized blocks truncated — near-duplicate coverage is partial\n", dres.BlocksCapped)
	}
	const maxGroups = 10
	for i := range dres.Groups {
		if i >= maxGroups {
			fmt.Printf("  ... and %d more groups\n", len(dres.Groups)-maxGroups)
			break
		}
		g := &dres.Groups[i]
		kind := "near"
		if g.Exact {
			kind = "exact"
		}
		fmt.Printf("  %-5s ids=%v  min similarity %.3f\n", kind, g.IDs, g.MinSimilarity)
	}
}

// runStream audits the source through the bounded-memory pipeline and
// prints the ranked top-K plus per-attribute deviation tallies.
func runStream(model *audit.Model, src dataset.RowSource, top, chunk, workers int, stats bool) {
	res, err := model.AuditStream(src, audit.StreamOptions{
		ChunkSize: chunk,
		Workers:   workers,
		TopK:      top,
	})
	if err != nil {
		fail("streaming audit: %v", err)
	}

	fmt.Printf("streamed %d records in %v: %d suspicious (error confidence >= %.2f)\n",
		res.RowsChecked, res.CheckTime, res.NumSuspicious, model.Opts.MinConfidence)
	for i := range res.Top {
		rep := &res.Top[i]
		fmt.Printf("%4d. record id=%d  confidence %.2f%%\n", i+1, rep.ID, rep.ErrorConf*100)
		fmt.Printf("      %s\n", model.DescribeFinding(rep.Best))
	}
	if res.TopTruncated {
		fmt.Printf("... and %d more (raise -top to rank them)\n", res.NumSuspicious-int64(len(res.Top)))
	}
	fmt.Println("per-attribute deviations:")
	for _, tally := range res.Attrs {
		if tally.Deviations == 0 {
			continue
		}
		fmt.Printf("  %-14s %8d deviations, %6d suspicious, max confidence %.2f%%\n",
			model.Schema.Attr(tally.Attr).Name, tally.Deviations, tally.Suspicious, tally.MaxErrorConf*100)
	}
	if stats {
		printStats(model, res.RowsChecked, res.NumSuspicious, res.CheckTime, res.Attrs)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "audit: "+format+"\n", args...)
	os.Exit(1)
}
