// Command podctl runs one rolling upgrade on the simulated cloud with
// POD-Diagnosis watching, optionally injecting one of the paper's eight
// fault types, and prints the live diagnosis results.
//
// Usage:
//
//	podctl [-size N] [-fault kind] [-interfere kind] [-scale X] [-seed S] [-v]
//	podctl -fault key-pair-changed -timeline   # render the causal evidence timeline
//	podctl -fault wrong-ami -spans             # print the operation's tracer spans (/traces?op= view)
//	podctl -fault ami-changed -remediate-mode auto -remediations   # heal the fault and print the audit
//	podctl -fault sg-changed -remediate-mode approve -approve      # hold actions, then approve them
//	podctl -plans                        # list the diagnosis-plan catalog
//	podctl -show-plan ft-version-count   # print one plan (the Figure 5 DAG)
//	podctl -list-faults                  # list injectable fault kinds
//
// With -timeline, the run ends by rendering the operation's causal
// flight-recorder timeline: every detection chains back through
// conformance verdicts (or assertion results) to the raw log event that
// triggered it, and forward through the fault-tree tests (with
// retry/breaker/cache annotations) to the confirmed root cause.
// -timeline-kind restricts the rendering to a comma-separated list of
// entry kinds (e.g. detection,diagnosis.cause).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/diagplan"
	"poddiagnosis/internal/faultinject"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/obs/flight"
	"poddiagnosis/internal/offline"
	"poddiagnosis/internal/process"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		size      = flag.Int("size", 4, "cluster size (paper: 4 or 20)")
		faultName = flag.String("fault", "", "fault to inject (see -list-faults; empty = clean run)")
		interfere = flag.String("interfere", "", "interference to inject: scale-in, random-termination, account-pressure")
		scale     = flag.Float64("scale", 120, "clock speed-up factor")
		seed      = flag.Int64("seed", 1, "random seed")
		verbose   = flag.Bool("v", false, "stream all log events")
		showPlan  = flag.String("show-plan", "", "print one diagnosis plan as an indented DAG and exit (see -plans)")
		plansList = flag.Bool("plans", false, "list the diagnosis-plan catalog and exit")
		listFault = flag.Bool("list-faults", false, "list fault kinds and exit")
		postmort  = flag.Bool("postmortem", false, "print the offline post-mortem from the central log store after the run")
		dumpPath  = flag.String("dump", "", "write the central log store to this JSON-lines file (analyze later with podanalyze)")
		timeline  = flag.Bool("timeline", false, "render the operation's causal flight-recorder timeline after the run")
		tlKinds   = flag.String("timeline-kind", "", "comma-separated entry kinds to keep in -timeline output (empty = all)")
		spans     = flag.Bool("spans", false, "print the operation's completed tracer spans after the run (the GET /traces?op= view)")
		remMode   = flag.String("remediate-mode", "off", "closed-loop remediation policy: off, dry-run, approve or auto")
		remList   = flag.Bool("remediations", false, "print the remediation audit trail after the run")
		approve   = flag.Bool("approve", false, "approve pending (approve-mode) remediations after the run")
	)
	flag.Parse()

	mode, err := remediate.ParseMode(*remMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var kinds []flight.Kind
	for _, part := range strings.Split(*tlKinds, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k := flight.Kind(part)
		if !flight.KnownKind(k) {
			fmt.Fprintf(os.Stderr, "unknown timeline kind %q (known: %v)\n", part, flight.Kinds())
			return 2
		}
		kinds = append(kinds, k)
	}

	if *listFault {
		for _, k := range faultinject.AllKinds() {
			fmt.Printf("  %-24s expected root causes: %v\n", k, k.ExpectedRootCauses())
		}
		return 0
	}
	if *plansList {
		listPlans()
		return 0
	}
	if *showPlan != "" {
		return printPlan(*showPlan)
	}

	var fault faultinject.Kind
	if *faultName != "" {
		for _, k := range faultinject.AllKinds() {
			if k.String() == *faultName {
				fault = k
			}
		}
		if fault == 0 {
			fmt.Fprintf(os.Stderr, "unknown fault %q (see -list-faults)\n", *faultName)
			return 2
		}
	}

	ctx := context.Background()
	clk := clock.NewScaled(*scale, time.Date(2013, 11, 19, 11, 0, 0, 0, time.UTC))
	bus := logging.NewBus()
	defer bus.Close()
	cloud := simaws.New(clk, simaws.PaperProfile(), simaws.WithSeed(*seed), simaws.WithBus(bus))
	cloud.Start()
	defer cloud.Stop()

	if *verbose {
		sub := bus.Subscribe(4096, nil)
		go func() {
			sink := logging.NewTextSink(os.Stderr)
			for e := range sub.C {
				sink.Write(e)
			}
		}()
		defer sub.Cancel()
	}

	fmt.Printf("deploying %d-instance cluster (sim clock x%.0f)...\n", *size, *scale)
	cluster, err := upgrade.Deploy(ctx, cloud, "pm", *size, "v1")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	newAMI, err := cloud.RegisterImage(ctx, "pm-v2", "v2", upgrade.AppServices)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	spec := cluster.UpgradeSpec("pushing pm--asg", newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI

	mgr, err := core.NewManager(core.ManagerConfig{
		Cloud:       cloud,
		Bus:         bus,
		Remediation: remediate.SuggestedPolicy(mode),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	sess, err := mgr.Watch(core.Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   newAMI,
		NewVersion:   "v2",
		NewLCName:    spec.NewLCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  *size,
		OldLCName:    cluster.LCName,
	}, core.MatchAnyInstance())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	mgr.Start()

	injector := faultinject.NewInjector(cloud, cluster, *seed)
	defer injector.Heal()
	if fault != 0 {
		fmt.Printf("injecting fault %q mid-upgrade...\n", fault)
		go func() {
			_ = injector.Inject(ctx, fault, 30*time.Second, spec.NewLCName, newAMI)
		}()
	}
	if *interfere != "" {
		for _, i := range []faultinject.Interference{
			faultinject.InterferenceScaleIn,
			faultinject.InterferenceRandomTermination,
			faultinject.InterferenceAccountPressure,
		} {
			if i.String() == *interfere {
				fmt.Printf("injecting interference %q...\n", i)
				go func() { _ = injector.Interfere(ctx, i, 40*time.Second) }()
			}
		}
	}

	fmt.Printf("starting rolling upgrade of %s to %s...\n", cluster.ASGName, newAMI)
	rep := upgrade.NewUpgrader(cloud, bus).Run(ctx, spec)
	_ = clk.Sleep(ctx, 30*time.Second)
	mgr.Drain(ctx, 5*time.Minute)
	rem := mgr.Remediator()
	if rem != nil && *approve {
		for _, rm := range rem.List(sess.ID()) {
			if rm.State != remediate.StatePending {
				continue
			}
			res, err := rem.Approve(ctx, rm.ID)
			if err != nil {
				fmt.Fprintf(os.Stderr, "approve %s: %v\n", rm.ID, err)
				continue
			}
			fmt.Printf("approved %s: %s -> %s\n", res.ID, res.Action, res.State)
		}
	}
	mgr.Stop()

	if rep.Err != nil {
		fmt.Printf("upgrade FAILED: %v\n", rep.Err)
	} else {
		fmt.Printf("upgrade completed: replaced %d instances in %s (simulated)\n",
			len(rep.Replaced), rep.Finished.Sub(rep.Started).Round(time.Second))
	}
	if *dumpPath != "" {
		if err := mgr.Store().SaveFile(*dumpPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("central log store written to %s (%d events)\n", *dumpPath, mgr.Store().Len())
	}
	if *postmort {
		rep, err := offline.Analyze(mgr.Store(), process.RollingUpgradeModel())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println()
		fmt.Print(rep.Render())
	}

	dets := sess.Detections()
	fmt.Printf("\n%d detection(s):\n", len(dets))
	for i, d := range dets {
		fmt.Printf("  [%d] source=%s trigger=%s step=%s\n      %s\n", i+1, d.Source, d.TriggerID, d.StepID, d.Message)
		if d.Diagnosis != nil {
			fmt.Printf("      diagnosis (%0.2fs, %d tests, %d/%d faults excluded): %s\n",
				d.Diagnosis.Duration.Seconds(), len(d.Diagnosis.TestsRun),
				d.Diagnosis.Excluded, d.Diagnosis.PotentialFaults, d.Diagnosis.Conclusion)
			for _, c := range d.Diagnosis.RootCauses {
				fmt.Printf("      root cause: %s — %s\n", c.NodeID, c.Description)
			}
			for _, c := range d.Diagnosis.Suspected {
				fmt.Printf("      suspected:  %s — %s\n", c.NodeID, c.Description)
			}
		}
	}
	if *remList && rem != nil {
		rms := rem.List(sess.ID())
		fmt.Printf("\n%d remediation(s):\n", len(rms))
		for _, rm := range rms {
			fmt.Printf("  %-6s %-24s mode=%-8s state=%-9s cause=%s\n",
				rm.ID, rm.Action, rm.Mode, rm.State, rm.CauseNode)
			if rm.Detail != "" {
				fmt.Printf("         %s\n", rm.Detail)
			}
			if rm.Error != "" {
				fmt.Printf("         error: %s\n", rm.Error)
			}
		}
	}
	if *timeline {
		fmt.Println()
		flight.Render(os.Stdout, sess.Timeline(kinds...))
	}
	if *spans {
		printOperationSpans(sess.ID())
	}
	return 0
}

// printOperationSpans renders the completed tracer spans belonging to
// the operation's traces — the in-process equivalent of GET /traces?op=.
func printOperationSpans(op string) {
	all := obs.DefaultTracer.Spans()
	traces := make(map[uint64]bool)
	for _, s := range all {
		if s.Attrs["op"] == op {
			traces[s.TraceID] = true
		}
	}
	fmt.Printf("\nspans for operation %s:\n", op)
	for _, s := range all {
		if !traces[s.TraceID] {
			continue
		}
		fmt.Printf("  trace=%-6d span=%-6d parent=%-6d %-20s %6.1fms\n",
			s.TraceID, s.SpanID, s.ParentID, s.Name, float64(s.DurationUS)/1000)
	}
}

// listPlans prints the full diagnosis-plan catalog, one line per plan.
func listPlans() {
	for _, c := range diagplan.FullCatalog().Compiled("") {
		p := c.Plan
		fmt.Printf("  %-24s assertion=%-20s nodes=%2d causes=%2d  %s\n",
			p.ID, p.AssertionID, len(p.Nodes), c.View("", false).PotentialFaults, p.Description)
	}
}

// printPlan renders one diagnosis plan as an indented DAG, probability
// order first. Fan-in nodes are expanded once; later visits print a
// shared-node reference instead of repeating the sub-graph.
func printPlan(id string) int {
	c := diagplan.FullCatalog().Get(id)
	if c == nil {
		fmt.Fprintf(os.Stderr, "unknown plan %q (see -plans)\n", id)
		return 2
	}
	p := c.Plan
	fmt.Printf("Diagnosis plan %s — diagnoses assertion %q\n", p.ID, p.AssertionID)
	seen := make(map[string]bool)
	var walk func(vn *diagplan.VNode, depth int)
	walk = func(vn *diagplan.VNode, depth int) {
		indent := strings.Repeat("  ", depth)
		marker := "▸"
		if vn.Cause {
			marker = "●"
		}
		if seen[vn.ID] {
			fmt.Printf("%s%s %s ↩ (shared sub-graph, expanded above)\n", indent, marker, vn.ID)
			return
		}
		seen[vn.ID] = true
		check := ""
		if vn.CheckID != "" {
			check = " [test: " + vn.CheckID + "]"
		}
		n := p.Node(vn.ID)
		steps := ""
		if len(n.Steps) > 0 {
			steps = fmt.Sprintf(" (steps %v)", n.Steps)
		}
		fmt.Printf("%s%s %s%s%s\n", indent, marker, n.Description, check, steps)
		for _, child := range vn.Children {
			walk(child, depth+1)
		}
	}
	if entry := c.View("", false).Entry; entry != nil {
		walk(entry, 0)
	}
	return 0
}
