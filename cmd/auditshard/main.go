// Command auditshard audits one CSV batch across a fleet of auditd worker
// processes — the one-shot face of coordinator mode. It loads a published
// model from a registry directory, splits the batch into shards, scores
// them on the workers (replicating the model to any worker that lacks it)
// and merges the shard results into a single ranked report:
//
//	# three workers, one contiguous row range each
//	auditshard -dir ./auditd-data -name engines -in tonight.csv \
//	           -workers http://localhost:8081,http://localhost:8082,http://localhost:8083
//
//	# 12 shards, persisted result for byte-level diffing
//	auditshard -dir ./auditd-data -name engines -in tonight.csv \
//	           -workers http://localhost:8081 -shards 12 -out sharded.gob
//
//	# the single-node oracle: same model, same batch, no workers
//	auditshard -dir ./auditd-data -name engines -in tonight.csv -local -out local.gob
//
// -out writes the merged audit.Result as gob with the wall-time field
// zeroed, so a sharded run and a -local run over the same inputs produce
// byte-identical files — the contract the multi-process e2e suite diffs.
//
// It is a binary of its own because scripts/e2e_shard.sh is its caller:
// folded into cmd/audit it would be the same lines behind more flags.
package main

import (
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"dataaudit/internal/audit"
	"dataaudit/internal/dataset"
	"dataaudit/internal/registry"
	"dataaudit/internal/shard"
)

func main() {
	var (
		dir     = flag.String("dir", "", "registry directory holding the published model (required)")
		name    = flag.String("name", "", "model name in the registry (required)")
		version = flag.Int("version", 0, "model version (0 = latest)")
		in      = flag.String("in", "", "input CSV with header row (required)")
		workers = flag.String("workers", "", "comma-separated worker base URLs (required unless -local)")
		local   = flag.Bool("local", false, "score in-process instead of sharding — the single-node oracle")
		shards  = flag.Int("shards", 0, "shard count (0 = one per worker)")
		timeout = flag.Duration("timeout", 10*time.Minute, "overall audit deadline")
		out     = flag.String("out", "", "write the merged result as gob (wall time zeroed) for byte-level diffing")
		top     = flag.Int("top", 10, "number of top-ranked suspicious records to print")
	)
	flag.Parse()
	// Pin the gob type ids of the Result tree before anything else runs:
	// gob allocates wire type ids process-globally on first use, so the
	// sharded path's registry and wire-protocol encodings would otherwise
	// shift the ids and break -out byte-identity between a -local run and
	// a -workers run.
	_ = gob.NewEncoder(io.Discard).Encode(&audit.Result{})
	logger := log.New(os.Stderr, "auditshard ", log.LstdFlags)
	if *dir == "" || *name == "" || *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if !*local && *workers == "" {
		logger.Fatal("-workers is required (or pass -local for the single-node oracle)")
	}

	reg, err := registry.Open(*dir)
	if err != nil {
		logger.Fatal(err)
	}
	var (
		model *audit.Model
		meta  registry.Meta
	)
	if *version > 0 {
		model, meta, err = reg.GetVersion(*name, *version)
	} else {
		model, meta, err = reg.Get(*name)
	}
	if err != nil {
		logger.Fatal(err)
	}

	f, err := os.Open(*in)
	if err != nil {
		logger.Fatal(err)
	}
	defer f.Close()
	tab, err := dataset.ReadCSV(f, model.Schema)
	if err != nil {
		logger.Fatalf("reading %s: %v", *in, err)
	}

	start := time.Now()
	var res *audit.Result
	if *local {
		res = model.AuditTable(tab)
	} else {
		coord, err := shard.New(shard.Options{
			Workers: strings.Split(*workers, ","),
			Shards:  *shards,
			Logger:  logger,
		})
		if err != nil {
			logger.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		res, err = coord.AuditTable(ctx, model, meta, tab)
		if err != nil {
			logger.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	suspicious, _ := model.TallyResult(res)
	mode := "locally"
	if !*local {
		mode = fmt.Sprintf("across %d workers", len(strings.Split(*workers, ",")))
	}
	fmt.Printf("%s v%d: %d rows audited %s in %s, %d suspicious\n",
		meta.Name, meta.Version, res.Rows, mode, elapsed.Round(time.Millisecond), suspicious)
	for i, rep := range res.Suspicious() {
		if i >= *top {
			break
		}
		desc := ""
		if rep.Best != nil {
			desc = " — " + model.DescribeFinding(rep.Best)
		}
		fmt.Printf("  #%d row %d (id %d) conf %.3f%s\n", i+1, rep.Row, rep.ID, rep.ErrorConf, desc)
	}

	if *out != "" {
		cp := *res
		cp.CheckTime = 0
		of, err := os.Create(*out)
		if err != nil {
			logger.Fatal(err)
		}
		if err := gob.NewEncoder(of).Encode(&cp); err != nil {
			logger.Fatal(err)
		}
		if err := of.Close(); err != nil {
			logger.Fatal(err)
		}
	}
}
