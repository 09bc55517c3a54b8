// Interference scenario: the upgrade itself is healthy, but legitimate
// simultaneous operations — an ASG scale-in and co-tenant account
// pressure — confound it (§V.B). POD-Diagnosis detects the capacity
// anomalies and attributes them to the simultaneous operations rather
// than blaming the upgrade.
//
//	go run ./examples/interference
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	pod "poddiagnosis"
)

func main() {
	ctx := context.Background()
	clk := pod.NewScaledClock(200)
	bus := pod.NewLogBus()
	defer bus.Close()

	profile := pod.PaperProfile()
	profile.InstanceLimit = 32 // a tight shared account
	cloud := pod.NewSimulatedCloud(clk, profile, bus, 11)
	cloud.Start()
	defer cloud.Stop()

	cluster, err := pod.Deploy(ctx, cloud, "pm", 4, "v1")
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		log.Fatal(err)
	}
	newAMI, err := cloud.RegisterImage(ctx, "pm-v2", "v2", nil)
	if err != nil {
		log.Fatal(err)
	}
	spec := cluster.UpgradeSpec("pushing pm--asg", newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI

	mgr, err := pod.NewManager(pod.ManagerConfig{
		Cloud:            cloud,
		Bus:              bus,
		PeriodicInterval: 45 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := mgr.Watch(pod.Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   newAMI,
		NewVersion:   "v2",
		NewLCName:    spec.NewLCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  4,
	}, pod.MatchAnyInstance())
	if err != nil {
		log.Fatal(err)
	}
	mgr.Start()

	injector := pod.NewInjector(cloud, cluster, 23)
	defer injector.Heal()
	go func() {
		// A different operator legitimately scales the group in...
		if err := injector.Interfere(ctx, pod.InterferenceScaleIn, 40*time.Second); err == nil {
			fmt.Println(">> simultaneous operation: ASG scaled in by one")
		}
	}()
	go func() {
		// ...while the co-tenant team fills the shared account.
		if err := injector.Interfere(ctx, pod.InterferenceAccountPressure, 60*time.Second); err == nil {
			fmt.Printf(">> co-tenant team now holds %d instances of the shared account limit\n", cloud.ExternalUsage())
		}
	}()

	fmt.Println("rolling upgrade to v2 starting amid simultaneous operations...")
	report := pod.NewUpgrader(cloud, bus).Run(ctx, spec)
	_ = clk.Sleep(ctx, time.Minute) // let the periodic assertion observe the aftermath
	mgr.Drain(ctx, 2*time.Minute)
	mgr.Stop()

	fmt.Printf("\nupgrade finished (err=%v)\n", report.Err)
	fmt.Printf("POD-Diagnosis detections (%d):\n", len(sess.Detections()))
	for _, d := range sess.Detections() {
		fmt.Printf("\n  %s via %s: %s\n", d.Source, d.TriggerID, d.Message)
		if d.Diagnosis == nil {
			continue
		}
		fmt.Printf("  conclusion: %s\n", d.Diagnosis.Conclusion)
		for _, c := range d.Diagnosis.RootCauses {
			fmt.Printf("    root cause: %s\n", c.Description)
		}
		for _, c := range d.Diagnosis.Suspected {
			fmt.Printf("    suspected:  %s\n", c.Description)
		}
	}
}
