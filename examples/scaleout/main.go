// Scale-out: POD-Diagnosis watching a *different* sporadic operation than
// the paper's case study — demonstrating §III.C's generality claim. A new
// process model plus an assertion specification is all it takes: the
// assertion library, the fault trees, conformance checking and the
// diagnosis engine are reused unchanged.
//
// The scenario: the group is scaled from 3 to 6 instances while the
// co-tenant team has filled most of the shared account's instance limit.
// The scale-out stalls; POD-Diagnosis detects the capacity assertion
// failure and diagnoses the account limit as the root cause — the exact
// incident that taught the paper's authors to amend their fault tree
// (§VI.A, wrong-diagnosis class four).
//
//	go run ./examples/scaleout
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
	profile.InstanceLimit = 30
	cloud := pod.NewSimulatedCloud(clk, profile, bus, 17)
	cloud.Start()
	defer cloud.Stop()

	cluster, err := pod.Deploy(ctx, cloud, "pm", 3, "v1")
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		log.Fatal(err)
	}

	// The co-tenant team holds 26 of the 30 account slots: only one more
	// instance fits.
	cloud.SetExternalUsage(26)
	fmt.Println("shared account: 26 of 30 instance slots held by the co-tenant team")

	// Attach the monitor — scale-out model, scale-out assertion spec,
	// everything else reused.
	mgr, err := pod.NewManager(pod.ManagerConfig{
		Cloud:         cloud,
		Bus:           bus,
		Model:         pod.ScaleOutModel(),
		AssertionSpec: pod.ScaleOutAssertionSpecText,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := mgr.Watch(pod.Expectation{
		ASGName:      cluster.ASGName,
		ELBName:      cluster.ELBName,
		NewImageID:   cluster.ImageID,
		NewVersion:   "v1",
		NewLCName:    cluster.LCName,
		KeyName:      cluster.KeyName,
		SGName:       cluster.SGName,
		InstanceType: "m1.small",
		ClusterSize:  6, // the scale-out target
		MinInService: 3,
	}, pod.MatchAnyInstance())
	if err != nil {
		log.Fatal(err)
	}
	mgr.Start()

	fmt.Println("scaling group from 3 to 6 instances...")
	rep := pod.NewUpgrader(cloud, bus).RunScaleOut(ctx, pod.ScaleOutSpec{
		TaskID:      "scale-out pm--asg",
		ASGName:     cluster.ASGName,
		ELBName:     cluster.ELBName,
		Target:      6,
		WaitTimeout: 4 * time.Minute,
	})
	_ = clk.Sleep(ctx, 30*time.Second)
	mgr.Drain(ctx, 2*time.Minute)
	mgr.Stop()

	if rep.Err != nil {
		fmt.Printf("\nscale-out FAILED (as expected): %v\n", rep.Err)
	} else {
		fmt.Printf("\nscale-out completed: %d instances joined\n", len(rep.NewInstances))
	}
	fmt.Printf("POD-Diagnosis detections (%d):\n", len(sess.Detections()))
	for _, d := range sess.Detections() {
		fmt.Printf("\n  %s via %s: %s\n", d.Source, d.TriggerID, d.Message)
		if d.Diagnosis == nil {
			continue
		}
		fmt.Printf("  conclusion: %s (%.2fs, %d tests)\n",
			d.Diagnosis.Conclusion, d.Diagnosis.Duration.Seconds(), len(d.Diagnosis.TestsRun))
		for _, c := range d.Diagnosis.RootCauses {
			fmt.Printf("    ROOT CAUSE: %s\n", c.Description)
		}
		for _, c := range d.Diagnosis.Suspected {
			fmt.Printf("    suspected:  %s\n", c.Description)
		}
	}
}
