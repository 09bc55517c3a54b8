// Quickstart: deploy a cluster on the simulated cloud, watch a clean
// rolling upgrade with POD-Diagnosis, and print what the monitor saw.
//
//	go run ./examples/quickstart
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

	// A clock running 200x real time: the minutes-long upgrade finishes
	// in seconds, while every reported duration stays in operation time.
	clk := pod.NewScaledClock(200)
	bus := pod.NewLogBus()
	defer bus.Close()
	cloud := pod.NewSimulatedCloud(clk, pod.PaperProfile(), bus, 42)
	cloud.Start()
	defer cloud.Stop()

	// Deploy the paper's application: a 4-instance log-monitoring stack
	// behind an ELB, managed by an auto scaling group.
	cluster, err := pod.Deploy(ctx, cloud, "pm", 4, "v1")
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.WaitReady(ctx, cloud, 10*time.Minute); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster %s ready: 4 instances of v1 behind %s\n", cluster.ASGName, cluster.ELBName)

	// Release v2 and describe the upgrade we are about to run.
	newAMI, err := cloud.RegisterImage(ctx, "pm-v2", "v2", []string{"redis", "logstash", "elasticsearch", "kibana"})
	if err != nil {
		log.Fatal(err)
	}
	spec := cluster.UpgradeSpec("pushing pm--asg", newAMI)
	spec.NewLCName = cluster.ASGName + "-lc-" + newAMI

	// Attach the POD-Diagnosis monitor: it consumes the operation logs
	// from the bus, replays them against the rolling-upgrade process
	// model, evaluates assertions after each step, and diagnoses any
	// failure through the fault trees.
	mon, err := pod.NewMonitor(pod.Config{
		Cloud: cloud,
		Bus:   bus,
		Expect: pod.Expectation{
			ASGName:      cluster.ASGName,
			ELBName:      cluster.ELBName,
			NewImageID:   newAMI,
			NewVersion:   "v2",
			NewLCName:    spec.NewLCName,
			KeyName:      cluster.KeyName,
			SGName:       cluster.SGName,
			InstanceType: "m1.small",
			ClusterSize:  4,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	mon.Start()

	fmt.Println("rolling upgrade to v2 starting...")
	report := pod.NewUpgrader(cloud, bus).Run(ctx, spec)
	mon.Drain(ctx, 2*time.Minute)
	mon.Stop()

	if report.Err != nil {
		log.Fatalf("upgrade failed: %v", report.Err)
	}
	fmt.Printf("upgrade completed: %d instances replaced in %s (operation time)\n",
		len(report.Replaced), report.Finished.Sub(report.Started).Round(time.Second))
	fmt.Printf("conformance: process completed = %v\n", mon.Checker().Completed(spec.TaskID))
	fmt.Printf("assertions evaluated: %d\n", mon.Evaluator().Count())
	fmt.Printf("detections: %d (a clean run should have none, or only timer transients)\n", len(mon.Detections()))
	for _, d := range mon.Detections() {
		fmt.Printf("  %s via %s: %s\n", d.Source, d.TriggerID, d.Message)
	}
}
