// Command podserve hosts the three POD-Diagnosis services — conformance
// checking, assertion evaluation, and error diagnosis — as RESTful web
// services over a simulated cloud, mirroring the paper's RESTlet
// deployment (§IV). One shared monitoring Manager watches several demo
// clusters upgrading concurrently (one Session per cluster), so the
// multi-tenant /operations surface and the observability endpoints carry
// live data.
//
// Usage:
//
//	podserve [-addr :8077] [-clusters N] [-size N] [-scale X] [-chaos-profile NAME] [-trace-capacity N] [-pprof addr]
//	podserve -federation N ...          federated mode: N in-process members behind a routing front
//	podserve -join URL -advertise URL   member mode: join the front at URL as a REST member
//
// Endpoints:
//
//	POST /conformance/check      {"traceId": "...", "line": "..."}
//	GET  /conformance/instances
//	POST /assertions/evaluate    {"checkId": "...", "params": {...}}
//	GET  /assertions/checks
//	POST /diagnosis              {"assertionId": "...", "stepId": "...", "params": {...}}
//	GET  /diagnosis/config       test budget, shared-cache TTL and stats
//	POST /operations             register a monitoring session
//	GET  /operations             list sessions
//	GET  /operations/{id}        one session's summary
//	GET  /operations/{id}/detections
//	GET  /operations/{id}/timeline  causal flight-recorder evidence chain (?kind= filters)
//	GET  /operations/{id}/remediations  remediation audit trail (needs -remediate-mode)
//	POST /remediations/{id}/approve     execute a pending approve-mode remediation
//	DELETE /operations/{id}      end and remove a session
//	GET  /model
//	GET  /healthz
//	GET  /readyz                 manager backlog, per-operation breakdown
//	GET  /metrics                Prometheus text exposition
//	GET  /traces                 completed spans as JSON (?op=ID filters to one operation)
//
// The span ring buffer behind /traces holds -trace-capacity completed
// spans (default 4096); raise it when correlating long chaos runs with
// timelines, lower it to bound memory.
//
// With -pprof ADDR, net/http/pprof is served on a second listener at
// ADDR (e.g. -pprof localhost:6060).
//
// With -federation N (N >= 2), the monitoring plane itself is
// fault-tolerant: N in-process Manager members stand behind a
// consistent-hash routing front with lease-based membership, the demo
// sessions spread across the member ring, and each /operations request
// is answered by the member owning the operation (plus
// /federation/members and /federation/route/{id} for the membership
// view). The /operations handlers are the same in every mode. With
// -join URL the process instead runs as a single member of a remote
// front: it advertises -advertise (its own reachable base URL) under
// -member-id, heartbeats lease renewals carrying session snapshots
// through the same lease agent the in-process members use, and serves
// the member-side handoff endpoints (GET /operations/{id}/export, POST
// /operations/restore).
//
// With -chaos-profile NAME (light, lossy, storm, full), the server runs
// its own chaos harness: the demo clusters' log streams are dropped,
// duplicated, reordered and delayed before they reach the monitoring
// pipeline, and the simulated cloud injects RequestLimitExceeded storms
// and latency spikes into API calls. Watch the effect live on
// /diagnosis/resilience and /metrics (pod_chaos_*, pod_resilience_*,
// pod_reorder_*).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"poddiagnosis/internal/chaos"
	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/core"
	"poddiagnosis/internal/federate"
	"poddiagnosis/internal/logging"
	"poddiagnosis/internal/obs"
	"poddiagnosis/internal/remediate"
	"poddiagnosis/internal/rest"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		clusters   = flag.Int("clusters", 3, "number of demo clusters upgrading under the shared manager")
		size       = flag.Int("size", 4, "size of each backing demo cluster")
		scale      = flag.Float64("scale", 60, "clock speed-up factor")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		chaosName  = flag.String("chaos-profile", "", "self-chaos profile (off, light, lossy, storm, full)")
		traceCap   = flag.Int("trace-capacity", 4096, "completed spans retained for GET /traces")
		remMode    = flag.String("remediate-mode", "off", "closed-loop remediation policy: off, dry-run, approve or auto")
		federation = flag.Int("federation", 0, "run N in-process manager members behind a routing front (0 = single manager)")
		joinURL    = flag.String("join", "", "run as a federation member of the front at this base URL")
		memberID   = flag.String("member-id", "member-1", "federation identity in -join mode")
		advertise  = flag.String("advertise", "", "this member's reachable base URL in -join mode (default derived from -addr)")
	)
	flag.Parse()
	if *federation != 0 && *joinURL != "" {
		fmt.Fprintln(os.Stderr, "-federation and -join are mutually exclusive")
		return 1
	}
	if *federation == 1 || *federation < 0 {
		fmt.Fprintln(os.Stderr, "-federation needs at least 2 members")
		return 1
	}
	mode, err := remediate.ParseMode(*remMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *clusters < 1 {
		*clusters = 1
	}
	obs.DefaultTracer.Resize(*traceCap)

	cp, ok := chaos.ByName(*chaosName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown chaos profile %q (known: %v)\n", *chaosName, chaos.Names())
		return 1
	}

	ctx := context.Background()
	clk := clock.NewScaled(*scale, clock.Wall.Now())
	bus := logging.NewBus()
	defer bus.Close()
	cloudOpts := []simaws.Option{simaws.WithSeed(1), simaws.WithBus(bus)}
	var logTap func(<-chan logging.Event) <-chan logging.Event
	if cp.Enabled() {
		fmt.Fprintf(os.Stderr, "chaos profile %q active: log stream and cloud API under injected faults\n", cp.Name)
		if inj := cp.FaultInjector(clk); inj != nil {
			cloudOpts = append(cloudOpts, simaws.WithFaultInjector(inj))
		}
		logTap = cp.LogTap(clk)
	}
	cloud := simaws.New(clk, simaws.PaperProfile(), cloudOpts...)
	cloud.Start()
	defer cloud.Stop()

	// One Manager shared by every demo operation: bus subscriptions, log
	// storage, evaluator, diagnosis engine and worker pool are common;
	// each cluster gets its own Session.
	// Generous retention: ended demo sessions stay queryable over
	// /operations long after their upgrade finishes.
	chaosLabel := ""
	if cp.Enabled() {
		chaosLabel = cp.Name
	}
	newManager := func() (*core.Manager, error) {
		m, err := core.NewManager(core.ManagerConfig{
			Cloud: cloud, Bus: bus, Retention: 24 * time.Hour,
			LogTap: logTap, ChaosLabel: chaosLabel,
			Remediation: remediate.SuggestedPolicy(mode),
		})
		if err != nil {
			return nil, err
		}
		m.Start()
		return m, nil
	}

	// The HTTP surface depends on the serving mode: single manager
	// (default), an in-process federation behind a front, or one member
	// of a remote front. Demo operations are registered through it.
	var server *rest.Server
	switch {
	case *federation >= 2:
		front := federate.NewFront(clk, federate.Config{})
		heartbeat := front.Config().LeaseTTL / 3
		for i := 1; i <= *federation; i++ {
			member, err := federate.NewLocalMember(federate.LocalConfig{
				ID: fmt.Sprintf("member-%d", i), NewManager: newManager,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := member.JoinFront(front); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			member.StartHeartbeats(heartbeat)
		}
		front.Start()
		defer front.Stop()
		fmt.Fprintf(os.Stderr, "federation of %d members behind the front (lease TTL %s)\n",
			*federation, front.Config().LeaseTTL)
		server = rest.NewServer(nil, nil, nil, rest.WithFront(front))
	case *joinURL != "":
		mgr, err := newManager()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer mgr.Stop()
		base := *advertise
		if base == "" {
			// A bare ":port" listen address needs a reachable host; an
			// addr that already names one is used as-is.
			host := *addr
			if len(host) > 0 && host[0] == ':' {
				host = "127.0.0.1" + host
			}
			base = "http://" + host
		}
		frontCl := rest.NewClient(*joinURL, nil, rest.WithClientClock(clk))
		agent := rest.NewFederationAgent(*memberID, base, mgr, frontCl)
		if err := agent.Join(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "join %s: %v\n", *joinURL, err)
			return 1
		}
		go agent.Run(ctx, clk, 3*time.Second)
		fmt.Fprintf(os.Stderr, "joined front %s as %s (advertising %s), epoch %d\n",
			*joinURL, *memberID, base, agent.Epoch())
		server = rest.NewServer(mgr.Checker(), mgr.Evaluator(), mgr.Diagnoser(),
			rest.WithManager(mgr))
	default:
		mgr, err := newManager()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer mgr.Stop()
		server = rest.NewServer(mgr.Checker(), mgr.Evaluator(), mgr.Diagnoser(),
			rest.WithManager(mgr))
	}

	// A joining member brings handoff capacity, not workload: its
	// simulated cloud is process-local, so deploying demo clusters here
	// and registering them through the front would collide with the
	// front's own pmN names and route watches onto members that cannot
	// see this cloud.
	demoClusters := *clusters
	if *joinURL != "" {
		demoClusters = 0
		fmt.Fprintln(os.Stderr, "member mode: no demo clusters, serving as handoff capacity")
	} else {
		fmt.Fprintf(os.Stderr, "deploying %d demo clusters of %d instances...\n", demoClusters, *size)
	}
	for i := 1; i <= demoClusters; i++ {
		app := fmt.Sprintf("pm%d", i)
		cluster, err := upgrade.Deploy(ctx, cloud, app, *size, "v1")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		newAMI, err := cloud.RegisterImage(ctx, app+"-v2", "v2", upgrade.AppServices)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		taskID := "pushing " + cluster.ASGName
		spec := cluster.UpgradeSpec(taskID, newAMI)
		spec.NewLCName = cluster.ASGName + "-lc-" + newAMI
		_, owner, err := server.Watch(ctx, federate.WatchRequest{
			ID:          app,
			InstanceIDs: []string{taskID},
			Expect: core.Expectation{
				ASGName:      cluster.ASGName,
				ELBName:      cluster.ELBName,
				NewImageID:   newAMI,
				NewVersion:   "v2",
				NewLCName:    spec.NewLCName,
				KeyName:      cluster.KeyName,
				SGName:       cluster.SGName,
				InstanceType: "m1.small",
				ClusterSize:  cluster.Size,
				OldLCName:    cluster.LCName,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Stagger the rolling upgrades so the sessions overlap but don't
		// start in lockstep; the server keeps serving while they run.
		delay := time.Duration(i-1) * time.Minute
		go func(spec upgrade.Spec, delay time.Duration) {
			if err := clk.Sleep(ctx, delay); err != nil {
				return
			}
			if rep := upgrade.NewUpgrader(cloud, bus).Run(ctx, spec); rep.Err != nil {
				fmt.Fprintf(os.Stderr, "upgrade %s: %v\n", spec.TaskID, rep.Err)
			}
		}(spec, delay)
		fmt.Fprintf(os.Stderr, "cluster %s ready behind %s; session %s watching %q on member %s\n",
			cluster.ASGName, cluster.ELBName, app, taskID, owner)
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	fmt.Fprintf(os.Stderr, "serving on %s\n", *addr)
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           server,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := httpServer.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// servePprof hosts the pprof handlers on their own mux so profiling
// endpoints never leak onto the public API listener.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "pprof:", err)
	}
}
