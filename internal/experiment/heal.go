package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"poddiagnosis/internal/core"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// healController is the lane's remediate.OperationController: the
// retry-failed-step action signals it, and the lane answers by re-driving
// the upgrade task once the environment fault has been repaired. Aborts
// are only recorded — under the suggested auto policy the abort action is
// held for approval, so a recorded abort in a heal run is itself a
// finding.
type healController struct {
	retry chan struct{}

	mu     sync.Mutex
	aborts []string
}

// RetryStep implements remediate.OperationController.
func (h *healController) RetryStep(ctx context.Context, stepID string) error {
	select {
	case h.retry <- struct{}{}:
	default: // a retry is already queued; one re-run covers both
	}
	return nil
}

// Abort implements remediate.OperationController.
func (h *healController) Abort(ctx context.Context, reason string) error {
	h.mu.Lock()
	h.aborts = append(h.aborts, reason)
	h.mu.Unlock()
	return nil
}

// Aborts returns the recorded abort requests.
func (h *healController) Aborts() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.aborts...)
}

// closeLoop drives the closed loop after the first attempt: the
// diagnosis→remediation chain runs asynchronously off the log stream and
// the step timers, so give it one replacement budget to confirm the cause
// and signal a retry, then re-drive the operation (the task re-runs from
// the top; completed steps are idempotent). More signals can arrive while
// the re-run executes (a second plan confirming a suffixed cause
// variant); each wait coalesces them. The run is Healed when the task
// completed and the cluster converged onto the intended launch
// configuration. holder is the Manager holding the session, nil when a
// federated operation never failed over. It returns the last report.
func (l *lane) closeLoop(ctx context.Context, sc Scenario, up *upgrade.Upgrader, o *operation,
	holder *core.Manager, rep *upgrade.Report, res *RunResult) *upgrade.Report {
	if holder == nil {
		res.HealErr = "operation never failed over to a survivor"
		return rep
	}
	ctl := l.controller(o.id)
	for retries := 0; retries < 3 && l.awaitRetrySignal(ctx, ctl, o.budget); retries++ {
		rep = sc.drive(ctx, up, o)
	}
	switch convergeErr := l.awaitConverged(ctx, o.watched, o.budget); {
	case rep.Err != nil:
		res.HealErr = "upgrade task did not complete: " + rep.Err.Error()
	case convergeErr != nil:
		res.HealErr = convergeErr.Error()
	case len(ctl.Aborts()) > 0:
		res.HealErr = fmt.Sprintf("operation aborted by remediation: %v", ctl.Aborts())
	default:
		res.Healed = true
	}
	return rep
}

// awaitRetrySignal waits (in simulated time) for the remediation engine's
// retry-failed-step signal, returning false when none arrives within the
// budget.
func (l *lane) awaitRetrySignal(ctx context.Context, ctl *healController, budget time.Duration) bool {
	deadline := l.clk.Now().Add(budget)
	for {
		select {
		case <-ctl.retry:
			return true
		default:
		}
		if l.clk.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		_ = l.clk.Sleep(ctx, time.Second)
	}
}

// awaitConverged polls until the cluster is in the intended end state of
// the upgrade: the ASG points at the cluster's launch configuration, every
// live member was launched from it, the group is at full strength, and
// every in-service member is registered and InService with the ELB.
func (l *lane) awaitConverged(ctx context.Context, cluster *upgrade.Cluster, budget time.Duration) error {
	deadline := l.clk.Now().Add(budget)
	for {
		ok, err := l.converged(ctx, cluster)
		if err == nil && ok {
			return nil
		}
		if l.clk.Now().After(deadline) || ctx.Err() != nil {
			if err != nil {
				return fmt.Errorf("cluster did not converge onto %s within %v: %w", cluster.LCName, budget, err)
			}
			return fmt.Errorf("cluster did not converge onto %s within %v", cluster.LCName, budget)
		}
		if serr := l.clk.Sleep(ctx, 2*time.Second); serr != nil {
			return serr
		}
	}
}

func (l *lane) converged(ctx context.Context, cluster *upgrade.Cluster) (bool, error) {
	asg, err := l.cloud.DescribeAutoScalingGroup(ctx, cluster.ASGName)
	if err != nil {
		return false, err
	}
	if asg.LaunchConfigName != cluster.LCName {
		return false, nil
	}
	health, err := l.cloud.DescribeInstanceHealth(ctx, cluster.ELBName)
	if err != nil {
		return false, err
	}
	registered := make(map[string]string, len(health))
	for _, h := range health {
		registered[h.InstanceID] = h.State
	}
	inService := 0
	for _, id := range asg.Instances {
		inst, err := l.cloud.DescribeInstance(ctx, id)
		if err != nil {
			if simaws.IsNotFound(err) {
				continue
			}
			return false, err
		}
		if !inst.Live() {
			continue
		}
		if inst.LaunchConfigName != cluster.LCName {
			return false, nil
		}
		if inst.State != simaws.StateInService {
			return false, nil
		}
		if registered[id] != "InService" {
			return false, nil
		}
		inService++
	}
	return inService == cluster.Size, nil
}
