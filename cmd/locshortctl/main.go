// Command locshortctl is the offline administration tool for a locshortd
// durable store directory (internal/store): list, inspect, verify, and
// compact the content-addressed records, and manage async job records,
// without a running daemon.
//
// Usage:
//
//	locshortctl -data DIR ls               list live records
//	locshortctl -data DIR inspect <fp>     decode one record in detail
//	locshortctl -data DIR verify           full integrity check (exit 1 on problems)
//	locshortctl -data DIR gc               compact segments, reclaim dead space
//	locshortctl -data DIR jobs ls          list async job records
//	locshortctl -data DIR jobs inspect <id>  decode one job (request, result, error)
//	locshortctl -data DIR jobs cancel <id>   cancel a queued/interrupted job offline
//	locshortctl -addr HOST:PORT top        live terminal view over a RUNNING daemon
//	locshortctl -addr HOST:PORT cluster status   ring membership, shares, reachability
//	locshortctl -addr HOST:PORT verify     remote integrity check over the peer API
//
// Three subcommands are online and need only -addr — no -data — because
// they never touch the store directory. `top` scrapes the daemon's
// /metrics on an interval (-interval, default 2s; -once for a single
// snapshot) and renders throughput, hit ratios, queue depths, and
// per-route latency quantiles from the deltas between scrapes.
// `cluster status` asks any node of a multi-node cluster for its ring
// config and renders the membership table: per-node vnode count,
// owned-range share (recomputed locally from the ring geometry), record
// inventory, reachability, and config-hash agreement. `verify` with -addr
// but no -data pulls every record over the /v1/peer/ API and re-verifies
// the payloads client-side — the remote counterpart of offline verify,
// trusting nothing the node claims about its own integrity.
//
// Every other subcommand works offline on the store directory, which is
// single-owner: run them against a stopped daemon or a copied directory,
// never against the directory of a live locshortd. The directory is
// opened as a segment store (store.Open), the only backend that leaves
// state on disk; a daemon run with -store=mem has nothing to administer
// offline (use `verify -addr` against it instead).
// `jobs cancel` exists exactly for that offline window: a job accepted by
// a daemon that went down re-runs on the next warm start unless it is
// canceled here first. See OPERATIONS.md for the backup / GC / verify /
// jobs runbook.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"locshort/internal/jobs"
	"locshort/internal/service"
	"locshort/internal/shortcut"
	"locshort/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "locshortctl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: locshortctl -data DIR {ls | inspect <fp> | verify | gc | jobs {ls | inspect <id> | cancel <id>}} | locshortctl -addr HOST:PORT {top | cluster status | verify}")
}

func run() error {
	data := flag.String("data", "", "store directory (required for offline subcommands)")
	addr := flag.String("addr", "", "daemon address for the top subcommand")
	interval := flag.Duration("interval", 2*time.Second, "top: delay between /metrics scrapes")
	once := flag.Bool("once", false, "top: print one snapshot and exit (no screen clearing)")
	flag.Parse()
	if flag.NArg() < 1 {
		return usage()
	}
	// top is the one subcommand that talks to a live daemon instead of an
	// offline store directory, so it routes before the -data check. Its
	// flags are re-parsed from the args after the subcommand word, so both
	// `locshortctl -addr A top` and `locshortctl top -addr A -once` work
	// (flag parsing stops at the first positional argument).
	if flag.Arg(0) == "top" {
		tf := flag.NewFlagSet("top", flag.ContinueOnError)
		taddr := tf.String("addr", *addr, "daemon address")
		tinterval := tf.Duration("interval", *interval, "delay between /metrics scrapes")
		tonce := tf.Bool("once", *once, "print one snapshot and exit (no screen clearing)")
		if err := tf.Parse(flag.Args()[1:]); err != nil {
			return err
		}
		if *taddr == "" {
			return fmt.Errorf("top needs -addr HOST:PORT (the daemon's listen address)")
		}
		return runTop(normalizeAddr(*taddr), *tinterval, *tonce)
	}
	// `cluster status` talks to a live cluster node over its peer API, so
	// like top it routes before the -data check and re-parses its flags
	// (from after the two subcommand words, so trailing -addr works too).
	if flag.Arg(0) == "cluster" {
		if flag.NArg() < 2 || flag.Arg(1) != "status" {
			return usage()
		}
		cf := flag.NewFlagSet("cluster status", flag.ContinueOnError)
		caddr := cf.String("addr", *addr, "any cluster node's address")
		if err := cf.Parse(flag.Args()[2:]); err != nil {
			return err
		}
		if cf.NArg() != 0 {
			return usage()
		}
		if *caddr == "" {
			return fmt.Errorf("cluster status needs -addr HOST:PORT (any node of the cluster)")
		}
		return runClusterStatus(normalizeAddr(*caddr))
	}
	// `verify -addr` (without -data) is the remote variant: it pulls every
	// record over the peer API and re-verifies the payloads client-side.
	// With -data it stays the offline integrity check, handled below.
	if flag.Arg(0) == "verify" {
		vf := flag.NewFlagSet("verify", flag.ContinueOnError)
		vaddr := vf.String("addr", *addr, "cluster node address for remote verification")
		vdata := vf.String("data", *data, "store directory for offline verification")
		if err := vf.Parse(flag.Args()[1:]); err != nil {
			return err
		}
		if vf.NArg() != 0 {
			return usage()
		}
		if *vdata == "" && *vaddr != "" {
			return runRemoteVerify(normalizeAddr(*vaddr))
		}
		*data = *vdata
	}
	if *data == "" {
		return usage()
	}
	// Unlike the daemon, an admin tool must not conjure an empty store out
	// of a mistyped path and then report it "clean".
	if fi, err := os.Stat(*data); err != nil || !fi.IsDir() {
		return fmt.Errorf("store directory %s does not exist", *data)
	}
	s, err := store.Open(*data, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()

	switch cmd := flag.Arg(0); cmd {
	case "ls":
		return runLs(s)
	case "inspect":
		if flag.NArg() != 2 {
			return usage()
		}
		fp, err := service.ParseFingerprint(flag.Arg(1))
		if err != nil {
			return err
		}
		return runInspect(s, fp)
	case "verify":
		return runVerify(s)
	case "gc":
		return runGC(s)
	case "jobs":
		if flag.NArg() < 2 {
			return usage()
		}
		switch sub := flag.Arg(1); sub {
		case "ls":
			return runJobsLs(s)
		case "inspect", "cancel":
			if flag.NArg() != 3 {
				return usage()
			}
			id, err := jobs.ParseID(flag.Arg(2))
			if err != nil {
				return err
			}
			if sub == "inspect" {
				return runJobsInspect(s, id)
			}
			return runJobsCancel(s, id)
		default:
			return usage()
		}
	default:
		return usage()
	}
}

func runLs(s store.Backend) error {
	recs := s.Records()
	fmt.Printf("%-9s  %-16s  %8s  %s\n", "KIND", "KEY", "BYTES", "DEPENDS ON")
	for _, r := range recs {
		dep := ""
		if r.Kind == "shortcut" {
			dep = fmt.Sprintf("graph %s, partition %s", r.GraphFP, r.PartitionFP)
		}
		fmt.Printf("%-9s  %-16s  %8d  %s\n", r.Kind, r.Key, r.Bytes, dep)
	}
	st := s.OpenStats()
	layout := ""
	if st.Segments > 0 {
		layout = fmt.Sprintf(" in %d segments", st.Segments)
	}
	fmt.Printf("%d records (%d graphs, %d partitions, %d shortcuts, %d jobs)%s, %d bytes\n",
		len(recs), st.Graphs, st.Partitions, st.Shortcuts, st.Jobs, layout, st.Bytes)
	if st.CorruptSkipped > 0 || st.TruncatedBytes > 0 {
		fmt.Printf("repaired on open: %d corrupt records skipped, %d bytes truncated\n",
			st.CorruptSkipped, st.TruncatedBytes)
	}
	return nil
}

// runInspect decodes every record stored under fp (a fingerprint can in
// principle key a graph, a partition, and a shortcut at once — they are
// separate namespaces) and prints what it finds.
func runInspect(s store.Backend, fp service.Fingerprint) error {
	found := false
	for _, r := range s.Records() {
		if r.Key != fp {
			continue
		}
		found = true
		switch r.Kind {
		case "graph":
			g, ok, err := s.GetGraph(fp)
			if err != nil {
				return err
			}
			if ok {
				fmt.Printf("graph %s: %d nodes, %d edges (%d bytes on disk)\n",
					fp, g.NumNodes(), g.NumEdges(), r.Bytes)
			}
		case "partition":
			fmt.Printf("partition %s: %d bytes on disk (decoded against its graph during shortcut inspection)\n",
				fp, r.Bytes)
		case "shortcut":
			fmt.Printf("shortcut %s: built on graph %s, partition %s (%d bytes on disk)\n",
				fp, r.GraphFP, r.PartitionFP, r.Bytes)
			g, ok, err := s.GetGraph(r.GraphFP)
			if err != nil || !ok {
				fmt.Printf("  graph record unavailable (ok=%v err=%v); cannot decode further\n", ok, err)
				continue
			}
			// Key only: the record is decoded with its own partition record.
			res, buildTime, ok, err := s.GetShortcut(fp, g, nil)
			if err != nil || !ok {
				fmt.Printf("  shortcut decode failed (ok=%v err=%v)\n", ok, err)
				continue
			}
			q := shortcut.Measure(res.Shortcut)
			fmt.Printf("  delta'=%d iterations=%d tree depth=%d, original build %v\n",
				res.Delta, res.Iterations, res.TreeDepth, buildTime)
			fmt.Printf("  parts=%d covered=%d congestion=%d dilation=%d blocks=%d\n",
				res.Shortcut.Parts.NumParts(), q.CoveredParts, q.Congestion, q.Dilation, q.MaxBlocks)
		}
	}
	if !found {
		return fmt.Errorf("no record stored under %s", fp)
	}
	return nil
}

func runVerify(s store.Backend) error {
	st := s.OpenStats()
	if st.CorruptSkipped > 0 || st.TruncatedBytes > 0 {
		fmt.Printf("repaired on open: %d corrupt records skipped, %d bytes truncated\n",
			st.CorruptSkipped, st.TruncatedBytes)
	}
	problems := s.Verify()
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	total := st.Graphs + st.Partitions + st.Shortcuts + st.Jobs
	if len(problems) > 0 {
		return fmt.Errorf("%d of %d records failed verification", len(problems), total)
	}
	fmt.Printf("store clean: %d records verified (%d graphs, %d partitions, %d shortcuts, %d jobs)\n",
		total, st.Graphs, st.Partitions, st.Shortcuts, st.Jobs)
	return nil
}

// loadJobs decodes every live job record, oldest first.
func loadJobs(s store.Backend) ([]jobs.Record, error) {
	var recs []jobs.Record
	err := s.EachJob(func(id uint64, payload []byte) error {
		rec, err := jobs.DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("job %016x: %w", id, err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].CreatedNs < recs[j].CreatedNs })
	return recs, nil
}

func runJobsLs(s store.Backend) error {
	recs, err := loadJobs(s)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s  %-9s  %-8s  %8s  %-24s  %s\n",
		"ID", "KIND", "STATE", "ATTEMPTS", "CREATED", "NOTE")
	counts := map[jobs.State]int{}
	for _, r := range recs {
		counts[r.State]++
		note := r.Error
		switch {
		case r.State == jobs.Done && r.FinishedNs > r.StartedNs && r.StartedNs > 0:
			note = fmt.Sprintf("ran %v", time.Duration(r.FinishedNs-r.StartedNs).Round(time.Millisecond))
		case r.CancelRequested && !r.State.Terminal():
			note = "cancel pending"
		}
		fmt.Printf("%-16s  %-9s  %-8s  %8d  %-24s  %s\n",
			r.ID, r.Kind, r.State, r.Attempts,
			time.Unix(0, r.CreatedNs).UTC().Format(time.RFC3339), note)
	}
	fmt.Printf("%d jobs (%d queued, %d running, %d done, %d failed, %d canceled)\n",
		len(recs), counts[jobs.Queued], counts[jobs.Running],
		counts[jobs.Done], counts[jobs.Failed], counts[jobs.Canceled])
	if n := counts[jobs.Queued] + counts[jobs.Running]; n > 0 {
		fmt.Printf("note: %d non-terminal job(s) will be re-enqueued on the daemon's next warm start\n", n)
	}
	return nil
}

func runJobsInspect(s store.Backend, id jobs.ID) error {
	payload, ok, err := s.GetJob(uint64(id))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no job record stored under %s", id)
	}
	r, err := jobs.DecodeRecord(payload)
	if err != nil {
		return err
	}
	ts := func(ns int64) string {
		if ns == 0 {
			return "-"
		}
		return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	fmt.Printf("job %s: kind=%s state=%s attempts=%d cancel_requested=%v\n",
		r.ID, r.Kind, r.State, r.Attempts, r.CancelRequested)
	fmt.Printf("  created  %s\n  started  %s\n  finished %s\n",
		ts(r.CreatedNs), ts(r.StartedNs), ts(r.FinishedNs))
	if len(r.Request) > 0 {
		fmt.Printf("  request  %s\n", r.Request)
	}
	if len(r.Result) > 0 {
		fmt.Printf("  result   %s\n", r.Result)
	}
	if r.Error != "" {
		fmt.Printf("  error    %s\n", r.Error)
	}
	return nil
}

// runJobsCancel durably cancels a non-terminal job record so the next
// daemon warm start does not re-run it.
func runJobsCancel(s store.Backend, id jobs.ID) error {
	payload, ok, err := s.GetJob(uint64(id))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no job record stored under %s", id)
	}
	r, err := jobs.DecodeRecord(payload)
	if err != nil {
		return err
	}
	if r.State.Terminal() {
		return fmt.Errorf("job %s already %s", id, r.State)
	}
	was := r.State
	r.CancelRequested = true
	r.State = jobs.Canceled
	r.FinishedNs = time.Now().UnixNano()
	out, err := jobs.EncodeRecord(r)
	if err != nil {
		return err
	}
	if err := s.PutJob(uint64(id), out); err != nil {
		return err
	}
	fmt.Printf("job %s canceled (was %s); it will not re-run on warm start\n", id, was)
	return nil
}

func runGC(s store.Backend) error {
	// GC is an optional capability (store.Compactor): an ephemeral backend
	// reclaims space eagerly and has nothing to compact.
	c, ok := s.(store.Compactor)
	if !ok {
		fmt.Println("gc: not supported by this backend (it reclaims space as records are deleted); nothing to do")
		return nil
	}
	before := s.OpenStats()
	gc, err := c.GC()
	if err != nil {
		return err
	}
	fmt.Printf("gc: %d live records kept (%d bytes), %d index entries dropped\n",
		gc.LiveRecords, gc.LiveBytes, gc.DroppedRecords)
	layout := ""
	if gc.Segments > 0 {
		layout = fmt.Sprintf(", %d segment(s) remain", gc.Segments)
	}
	fmt.Printf("gc: reclaimed %d of %d bytes%s\n", gc.ReclaimedBytes, before.Bytes, layout)
	return nil
}
