package poddiagnosis_test

import (
	"fmt"

	pod "poddiagnosis"
)

// ExampleRollingUpgradeModel shows the canonical Figure 2 model's
// structure: its activities in step order, with the step ids the process
// context carries.
func ExampleRollingUpgradeModel() {
	model := pod.RollingUpgradeModel()
	for _, step := range []string{"step1", "step2", "step3", "step4", "step5", "step6", "step7", "step8"} {
		fmt.Printf("%s: %s\n", step, model.ActivityByStep(step).Name)
	}
	// Output:
	// step1: Start rolling upgrade task
	// step2: Update launch configuration
	// step3: Sort instances
	// step4: Remove and deregister old instance from ELB
	// step5: Terminate old instance
	// step6: Wait for ASG to start new instance
	// step7: New instance ready and registered with ELB
	// step8: Rolling upgrade task completed
}

// ExampleParseOperationLine parses one Asgard-style log line into its
// parts — the first stage of the local log processor.
func ExampleParseOperationLine() {
	line := "[2013-10-24 11:41:48,312] [Task:pushing pm--asg] Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done."
	_, task, msg, ok := pod.ParseOperationLine(line)
	fmt.Println(ok)
	fmt.Println(task)
	fmt.Println(msg)
	// Output:
	// true
	// pushing pm--asg
	// Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.
}

// ExampleParseAssertionSpec parses an assertion specification — the text
// language that binds checks from the assertion library to process
// triggers.
func ExampleParseAssertionSpec() {
	spec, err := pod.ParseAssertionSpec(`
# after each completed replacement, verify the new version count
on step7 assert asg-version-count want={progress}
every 60s assert asg-instance-count want={min}
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, b := range spec.Bindings() {
		fmt.Printf("%s -> %s\n", b.Kind, b.CheckID)
	}
	// Output:
	// on-step -> asg-version-count
	// periodic -> asg-instance-count
}

// ExampleDefaultDiagnosisPlans selects the plans of the rolling-upgrade
// knowledge base that diagnose one assertion — one plan per assertion, per
// the paper's §III.B.4.
func ExampleDefaultDiagnosisPlans() {
	plans := pod.DefaultDiagnosisPlans().Select("asg-version-count")
	fmt.Println(len(plans))
	fmt.Println(plans[0].ID)
	// Output:
	// 1
	// ft-version-count
}
