// Mixed-version fault: the paper's most challenging scenario (§V.C).
// While our rolling upgrade to v2 is underway, an independent team pushes
// its own release by switching the auto scaling group to a different
// launch configuration — the classic continuous-deployment race. The
// system ends up with mixed versions; POD-Diagnosis detects the failing
// version assertion and walks the fault tree to the root cause, exactly
// like the diagnosis log excerpt in §III.B.4 of the paper.
//
//	go run ./examples/mixedversion
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
	cloud := pod.NewSimulatedCloud(clk, pod.PaperProfile(), bus, 7)
	cloud.Start()
	defer cloud.Stop()

	cluster, err := pod.Deploy(ctx, cloud, "dsn", 4, "v1")
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		log.Fatal(err)
	}
	newAMI, err := cloud.RegisterImage(ctx, "dsn-v2", "v2", nil)
	if err != nil {
		log.Fatal(err)
	}
	spec := cluster.UpgradeSpec("pushing dsn--asg", newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI

	mgr, err := pod.NewManager(pod.ManagerConfig{
		Cloud: cloud,
		Bus:   bus,
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

	// The concurrent independent upgrade: injected 30 seconds (operation
	// time) after our upgrade's launch configuration appears.
	injector := pod.NewInjector(cloud, cluster, 99)
	go func() {
		if err := injector.Inject(ctx, pod.FaultAMIChanged, 30*time.Second, spec.NewLCName, newAMI); err != nil {
			log.Printf("injection: %v", err)
		} else {
			fmt.Println(">> concurrent team switched the ASG to its own AMI")
		}
	}()

	fmt.Println("rolling upgrade to v2 starting (a rival release will race it)...")
	report := pod.NewUpgrader(cloud, bus).Run(ctx, spec)
	mgr.Drain(ctx, 2*time.Minute)
	mgr.Stop()

	fmt.Printf("\nupgrade finished (err=%v); POD-Diagnosis recorded %d detections:\n",
		report.Err, len(sess.Detections()))
	for _, d := range sess.Detections() {
		if d.Diagnosis == nil {
			continue
		}
		fmt.Printf("\n  detected by %s (%s) at step %s:\n    %s\n", d.Source, d.TriggerID, d.StepID, d.Message)
		fmt.Printf("    %d potential faults considered, %d excluded, %d tests run, %.2fs\n",
			d.Diagnosis.PotentialFaults, d.Diagnosis.Excluded, len(d.Diagnosis.TestsRun), d.Diagnosis.Duration.Seconds())
		for _, c := range d.Diagnosis.RootCauses {
			fmt.Printf("    ROOT CAUSE: %s\n", c.Description)
		}
	}
}
