package remediate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"poddiagnosis/internal/simaws"
)

// Target carries everything an action may touch: the simulated cloud, the
// operation's expectation-derived identities, and an optional controller
// for the running operation itself.
type Target struct {
	// Cloud is the simulated AWS account the operation runs against.
	Cloud *simaws.Cloud
	// ASGName / ELBName identify the cluster under operation.
	ASGName string
	ELBName string
	// NewLCName is the operator-intended (post-upgrade) launch
	// configuration; OldLCName the pre-upgrade one to fall back to when
	// the intended one references unavailable resources.
	NewLCName string
	OldLCName string
	// ClusterSize is the expected fleet size.
	ClusterSize int
	// StepID is the process step the triggering detection blamed, if any.
	StepID string
	// Op controls the running operation (retry a step, abort). Nil when
	// the session has no controller attached; actions needing one report
	// ErrNoController.
	Op OperationController
}

// OperationController lets remediation steer the sporadic operation that
// the diagnosed fault interrupted.
type OperationController interface {
	// RetryStep re-runs the named failed process step (empty = the
	// current/failed step).
	RetryStep(ctx context.Context, stepID string) error
	// Abort stops the operation, recording the reason.
	Abort(ctx context.Context, reason string) error
}

// ErrNoController marks an action that needed an operation controller the
// session does not have. The engine records such outcomes as skipped
// rather than failed.
var ErrNoController = errors.New("remediate: no operation controller attached")

// DefaultCatalog binds the five built-in actions to the cause nodes of
// the shipped diagnosis plans (fault trees, blue/green, spot-rebalance)
// and marks the causes that deliberately stay manual.
func DefaultCatalog() *Catalog {
	// drift are the launch-configuration drift causes; unlaunchable the
	// causes of an intended configuration that references missing resources.
	drift := []string{"wrong-ami", "wrong-keypair", "wrong-sg", "wrong-instance-type", "lc-changed"}
	unlaunchable := []string{
		"lc-ami-unavailable", "lc-keypair-unavailable", "lc-sg-unavailable",
		"launch-ami-unavailable", "launch-keypair-unavailable", "launch-sg-unavailable",
	}
	c := NewCatalog()
	c.MustAdd(Action{
		Name:        "rollback-launch-config",
		Description: "Point the ASG back at the operator-intended launch configuration, or the pre-upgrade one when the intended configuration references unavailable resources.",
		Class:       ClassConfig,
		Causes:      slices.Concat(drift, unlaunchable),
		Run:         runRollbackLaunchConfig,
	})
	c.MustAdd(Action{
		Name:        "replace-instance",
		Description: "Terminate (without decrementing capacity) every live instance not launched from the ASG's current launch configuration so the reconciler relaunches it correctly.",
		Class:       ClassConfig,
		Causes:      drift,
		Run:         runReplaceInstance,
	})
	c.MustAdd(Action{
		Name:        "reregister-with-elb",
		Description: "Register the ASG's in-service instances that are missing from the load balancer.",
		Class:       ClassTraffic,
		Causes:      []string{"instance-not-registered"},
		Run:         runReregisterWithELB,
	})
	c.MustAdd(Action{
		Name:        "retry-failed-step",
		Description: "Re-run the failed process step of the sporadic operation once the environment fault has been repaired.",
		Class:       ClassOperation,
		Causes:      slices.Concat(drift, unlaunchable, []string{"instance-not-registered"}),
		Run:         runRetryFailedStep,
	})
	c.MustAdd(Action{
		Name:        "abort-operation",
		Description: "Abort the sporadic operation: the fault is environmental (ELB outage, account limit) and continuing would churn the fleet.",
		Class:       ClassEscalation,
		Causes:      []string{"elb-unreachable", "account-limit-reached"},
		Run:         runAbortOperation,
	})
	// Causes the catalog deliberately leaves to a human. An unexpected
	// termination or concurrent scale-in points at an actor outside the
	// upgrade (a second operator, a scaling policy, the platform itself);
	// any automatic response risks fighting that actor. Lint rule RM002
	// requires these markers, so a new plan cause cannot silently land
	// outside the remediation surface.
	c.MarkManual("unexpected-termination",
		"an external actor terminated instances mid-upgrade; investigate before re-converging the fleet")
	c.MarkManual("simultaneous-scale-in",
		"a concurrent scale-in changed the group's desired capacity; reconcile the two operations by hand")
	return c
}

// runRollbackLaunchConfig repairs launch-configuration drift: if the
// operator-intended configuration is launchable (its AMI, key pair and
// security groups still exist) the ASG is pointed back at it; otherwise
// the group rolls back to the pre-upgrade configuration.
func runRollbackLaunchConfig(ctx context.Context, t *Target) (string, error) {
	asg, err := t.Cloud.DescribeAutoScalingGroup(ctx, t.ASGName)
	if err != nil {
		return "", fmt.Errorf("describe ASG %s: %w", t.ASGName, err)
	}
	want := t.NewLCName
	reason := "operator-intended"
	if want == "" || !launchable(ctx, t.Cloud, want) {
		if t.OldLCName == "" || !launchable(ctx, t.Cloud, t.OldLCName) {
			return "", fmt.Errorf("neither intended launch configuration %q nor pre-upgrade %q is launchable", t.NewLCName, t.OldLCName)
		}
		want = t.OldLCName
		reason = "pre-upgrade fallback; intended configuration references unavailable resources"
	}
	if asg.LaunchConfigName == want {
		return fmt.Sprintf("ASG %s already on launch configuration %s (%s)", t.ASGName, want, reason), nil
	}
	if err := t.Cloud.UpdateAutoScalingGroup(ctx, t.ASGName, want, asg.Min, asg.Max, asg.Desired); err != nil {
		return "", fmt.Errorf("update ASG %s to %s: %w", t.ASGName, want, err)
	}
	return fmt.Sprintf("rolled ASG %s launch configuration back from %s to %s (%s)", t.ASGName, asg.LaunchConfigName, want, reason), nil
}

// launchable reports whether a launch configuration's referenced
// resources (AMI, key pair, security groups) all still exist.
func launchable(ctx context.Context, cloud *simaws.Cloud, lcName string) bool {
	lc, err := cloud.DescribeLaunchConfiguration(ctx, lcName)
	if err != nil {
		return false
	}
	if img, err := cloud.DescribeImage(ctx, lc.ImageID); err != nil || !img.Available {
		return false
	}
	if _, err := cloud.DescribeKeyPair(ctx, lc.KeyName); err != nil {
		return false
	}
	for _, sg := range lc.SecurityGroups {
		if _, err := cloud.DescribeSecurityGroup(ctx, sg); err != nil {
			return false
		}
	}
	return true
}

// runReplaceInstance terminates live ASG members whose launch
// configuration differs from the group's current one, without
// decrementing capacity, so the reconciler relaunches them from the
// (already repaired) configuration.
func runReplaceInstance(ctx context.Context, t *Target) (string, error) {
	asg, err := t.Cloud.DescribeAutoScalingGroup(ctx, t.ASGName)
	if err != nil {
		return "", fmt.Errorf("describe ASG %s: %w", t.ASGName, err)
	}
	var replaced []string
	for _, id := range asg.Instances {
		inst, err := t.Cloud.DescribeInstance(ctx, id)
		if err != nil {
			if simaws.IsNotFound(err) {
				continue
			}
			return "", fmt.Errorf("describe instance %s: %w", id, err)
		}
		if !inst.Live() || inst.State == simaws.StateTerminating || inst.LaunchConfigName == asg.LaunchConfigName {
			continue
		}
		if err := t.Cloud.TerminateInstanceInAutoScalingGroup(ctx, id, false); err != nil {
			if simaws.IsNotFound(err) {
				continue
			}
			return "", fmt.Errorf("terminate %s: %w", id, err)
		}
		replaced = append(replaced, id)
	}
	if len(replaced) == 0 {
		return fmt.Sprintf("no off-configuration instances in ASG %s", t.ASGName), nil
	}
	sort.Strings(replaced)
	return fmt.Sprintf("terminated %d off-configuration instance(s) %s for relaunch from %s",
		len(replaced), strings.Join(replaced, ","), asg.LaunchConfigName), nil
}

// runReregisterWithELB registers in-service ASG members missing from the
// load balancer.
func runReregisterWithELB(ctx context.Context, t *Target) (string, error) {
	asg, err := t.Cloud.DescribeAutoScalingGroup(ctx, t.ASGName)
	if err != nil {
		return "", fmt.Errorf("describe ASG %s: %w", t.ASGName, err)
	}
	health, err := t.Cloud.DescribeInstanceHealth(ctx, t.ELBName)
	if err != nil {
		return "", fmt.Errorf("describe ELB %s health: %w", t.ELBName, err)
	}
	registered := make(map[string]bool, len(health))
	for _, h := range health {
		registered[h.InstanceID] = true
	}
	var missing []string
	for _, id := range asg.Instances {
		if registered[id] {
			continue
		}
		inst, err := t.Cloud.DescribeInstance(ctx, id)
		if err != nil || inst.State != simaws.StateInService {
			continue
		}
		missing = append(missing, id)
	}
	if len(missing) == 0 {
		return fmt.Sprintf("all in-service members of ASG %s already registered with ELB %s", t.ASGName, t.ELBName), nil
	}
	sort.Strings(missing)
	if err := t.Cloud.RegisterInstancesWithLoadBalancer(ctx, t.ELBName, missing...); err != nil {
		return "", fmt.Errorf("register %v with ELB %s: %w", missing, t.ELBName, err)
	}
	return fmt.Sprintf("registered %d instance(s) %s with ELB %s", len(missing), strings.Join(missing, ","), t.ELBName), nil
}

// runRetryFailedStep re-runs the blamed process step via the operation
// controller.
func runRetryFailedStep(ctx context.Context, t *Target) (string, error) {
	if t.Op == nil {
		return "", ErrNoController
	}
	if err := t.Op.RetryStep(ctx, t.StepID); err != nil {
		return "", fmt.Errorf("retry step %q: %w", t.StepID, err)
	}
	if t.StepID == "" {
		return "requested retry of the failed step", nil
	}
	return fmt.Sprintf("requested retry of step %s", t.StepID), nil
}

// runAbortOperation aborts the operation via the controller.
func runAbortOperation(ctx context.Context, t *Target) (string, error) {
	if t.Op == nil {
		return "", ErrNoController
	}
	if err := t.Op.Abort(ctx, "remediation: environmental fault confirmed"); err != nil {
		return "", fmt.Errorf("abort operation: %w", err)
	}
	return "aborted the operation", nil
}
