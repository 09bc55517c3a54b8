// Package faultinject implements the fault injectors of the paper's
// evaluation (§V.C): the 8 representative fault types injected into
// rolling upgrades, plus the interference operations (legitimate
// simultaneous scale-in, random instance termination, co-tenant account
// pressure) used to confound detection.
//
// Each injector acts only through the public cloud API — exactly like the
// concurrent operators and infrastructure events it models.
package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/simaws"
	"poddiagnosis/internal/upgrade"
)

// Kind enumerates the 8 injected fault types of §V.C.
type Kind int

// Fault kinds, numbered as in the paper.
const (
	// KindAMIChanged is fault 1: AMI changed during upgrade (concurrent
	// independent upgrade causing mixed versions).
	KindAMIChanged Kind = iota + 1
	// KindKeyPairChanged is fault 2: key pair management fault.
	KindKeyPairChanged
	// KindSGChanged is fault 3: security group configuration fault.
	KindSGChanged
	// KindInstanceTypeChanged is fault 4: instance type changed during
	// upgrade.
	KindInstanceTypeChanged
	// KindAMIUnavailable is fault 5: AMI is unavailable during upgrade.
	KindAMIUnavailable
	// KindKeyPairUnavailable is fault 6: key pair unavailable.
	KindKeyPairUnavailable
	// KindSGUnavailable is fault 7: security group unavailable.
	KindSGUnavailable
	// KindELBUnavailable is fault 8: ELB is unavailable during upgrade.
	KindELBUnavailable
)

// AllKinds lists every fault kind in paper order.
func AllKinds() []Kind {
	return []Kind{
		KindAMIChanged, KindKeyPairChanged, KindSGChanged, KindInstanceTypeChanged,
		KindAMIUnavailable, KindKeyPairUnavailable, KindSGUnavailable, KindELBUnavailable,
	}
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindAMIChanged:
		return "ami-changed"
	case KindKeyPairChanged:
		return "keypair-changed"
	case KindSGChanged:
		return "sg-changed"
	case KindInstanceTypeChanged:
		return "instance-type-changed"
	case KindAMIUnavailable:
		return "ami-unavailable"
	case KindKeyPairUnavailable:
		return "keypair-unavailable"
	case KindSGUnavailable:
		return "sg-unavailable"
	case KindELBUnavailable:
		return "elb-unavailable"
	default:
		return "unknown"
	}
}

// ConfigurationFault reports whether the kind is one of the four
// configuration faults (1-4), which the paper notes are not detectable by
// conformance checking because the log output is unchanged.
func (k Kind) ConfigurationFault() bool {
	return k >= KindAMIChanged && k <= KindInstanceTypeChanged
}

// ExpectedRootCauses maps the fault kind to the fault-tree node base ids
// that constitute a correct diagnosis.
func (k Kind) ExpectedRootCauses() []string {
	switch k {
	// The changed-kind faults act by flipping the new launch configuration
	// (flipLaunchConfig), so a diagnosis of "launch configuration changed"
	// is as correct as the attribute-level wrong-* causes: which one fires
	// depends on whether the assertion runs before or after the ASG has
	// launched from the flipped configuration.
	case KindAMIChanged:
		return []string{"wrong-ami", "lc-changed"}
	case KindKeyPairChanged:
		return []string{"wrong-keypair", "lc-changed"}
	case KindSGChanged:
		return []string{"wrong-sg", "lc-changed"}
	case KindInstanceTypeChanged:
		return []string{"wrong-instance-type", "lc-changed"}
	case KindAMIUnavailable:
		return []string{"launch-ami-unavailable", "lc-ami-unavailable", "wrong-ami"}
	case KindKeyPairUnavailable:
		return []string{"launch-keypair-unavailable", "lc-keypair-unavailable", "wrong-keypair"}
	case KindSGUnavailable:
		return []string{"launch-sg-unavailable", "lc-sg-unavailable", "wrong-sg"}
	case KindELBUnavailable:
		return []string{"elb-unreachable"}
	default:
		return nil
	}
}

// Injector injects one fault into a running upgrade of a cluster.
type Injector struct {
	cloud   *simaws.Cloud
	cluster *upgrade.Cluster
	clk     clock.Clock
	rng     *rand.Rand
}

// NewInjector returns an Injector for the cluster.
func NewInjector(cloud *simaws.Cloud, cluster *upgrade.Cluster, seed int64) *Injector {
	return &Injector{
		cloud:   cloud,
		cluster: cluster,
		clk:     cloud.Clock(),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Inject applies the fault after delay (simulated time). newLCName is the
// launch configuration the upgrade under test creates; newAMI is the
// target image. Inject blocks until the fault is applied or ctx is done.
func (inj *Injector) Inject(ctx context.Context, kind Kind, delay time.Duration, newLCName, newAMI string) error {
	if err := inj.clk.Sleep(ctx, delay); err != nil {
		return err
	}
	switch kind {
	// Configuration flips wait until the group runs on the upgrade's own
	// launch configuration so the concurrent change strikes mid-upgrade
	// (after step 2), as in the paper's scenario of independent teams
	// racing on the same group.
	case KindAMIChanged:
		return inj.flipInUse(ctx, newLCName, "ami")
	case KindKeyPairChanged:
		return inj.flipInUse(ctx, newLCName, "key")
	case KindSGChanged:
		return inj.flipInUse(ctx, newLCName, "sg")
	case KindInstanceTypeChanged:
		return inj.flipInUse(ctx, newLCName, "type")
	case KindAMIUnavailable:
		return inj.waitThen(ctx, newLCName, func() error {
			return inj.cloud.DeregisterImage(ctx, newAMI)
		})
	case KindKeyPairUnavailable:
		return inj.waitThen(ctx, newLCName, func() error {
			return inj.cloud.DeleteKeyPair(ctx, inj.cluster.KeyName)
		})
	case KindSGUnavailable:
		return inj.waitThen(ctx, newLCName, func() error {
			return inj.cloud.DeleteSecurityGroup(ctx, inj.cluster.SGName)
		})
	case KindELBUnavailable:
		inj.cloud.SetELBServiceDisruption(true)
		return nil
	default:
		return fmt.Errorf("faultinject: unknown kind %d", kind)
	}
}

// Heal reverts persistent fault state so the next run starts clean. Only
// the ELB disruption persists beyond a cluster teardown.
func (inj *Injector) Heal() {
	inj.cloud.SetELBServiceDisruption(false)
	inj.cloud.SetExternalUsage(0)
}

// flipLaunchConfig simulates a concurrent independent team switching the
// ASG to a copy of launch configuration lcName that differs in one
// dimension. An empty lcName means the group's current one, described
// here. The group may not exist yet when the flip fires — blue/green
// deploys create the launch configuration first and the group moments
// later — and the launch configuration may be moments old, so both
// describes poll briefly through NotFound.
func (inj *Injector) flipLaunchConfig(ctx context.Context, dim, lcName string) error {
	if lcName == "" {
		if err := inj.describeFresh(ctx, func() error {
			asg, err := inj.cloud.DescribeAutoScalingGroup(ctx, inj.cluster.ASGName)
			lcName = asg.LaunchConfigName
			return err
		}); err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
	}
	var cur simaws.LaunchConfig
	if err := inj.describeFresh(ctx, func() (err error) {
		cur, err = inj.cloud.DescribeLaunchConfiguration(ctx, lcName)
		return err
	}); err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	rogue := cur
	rogue.Name = fmt.Sprintf("rogue-%s-%04x", dim, inj.rng.Intn(1<<16))
	switch dim {
	case "ami":
		ami, err := inj.cloud.RegisterImage(ctx, "rogue-release", fmt.Sprintf("v%d", 90+inj.rng.Intn(9)), upgrade.AppServices)
		if err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		rogue.ImageID = ami
	case "key":
		key := fmt.Sprintf("rogue-key-%04x", inj.rng.Intn(1<<16))
		if err := inj.cloud.ImportKeyPair(ctx, key); err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		rogue.KeyName = key
	case "sg":
		sg := fmt.Sprintf("rogue-sg-%04x", inj.rng.Intn(1<<16))
		if _, err := inj.cloud.CreateSecurityGroup(ctx, sg, []int{22}); err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		rogue.SecurityGroups = []string{sg}
	case "type":
		rogue.InstanceType = "m1.large"
	}
	if err := inj.cloud.CreateLaunchConfiguration(ctx, rogue); err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	if err := inj.cloud.UpdateAutoScalingGroup(ctx, inj.cluster.ASGName, rogue.Name, -1, -1, -1); err != nil {
		return fmt.Errorf("faultinject: %w", err)
	}
	return nil
}

// describeFresh calls describe until it answers something other than
// NotFound, once a second for up to 2 minutes of simulated time: an
// eventually consistent read may not show a resource created moments ago
// yet, even after a fresher read of another resource referenced it.
func (inj *Injector) describeFresh(ctx context.Context, describe func() error) error {
	err := describe()
	for deadline := inj.clk.Now().Add(2 * time.Minute); err != nil && simaws.IsNotFound(err) && inj.clk.Now().Before(deadline); {
		if serr := inj.clk.Sleep(ctx, time.Second); serr != nil {
			return serr
		}
		err = describe()
	}
	return err
}

// waitThen waits until the upgrade's new launch configuration exists (so
// resource deletion strikes mid-upgrade, not before LC validation), then
// applies f.
func (inj *Injector) waitThen(ctx context.Context, newLCName string, f func() error) error {
	return inj.waitUntil(ctx, newLCName, func() bool {
		_, err := inj.cloud.DescribeLaunchConfiguration(ctx, newLCName)
		return err == nil
	}, f)
}

// flipInUse waits until the group runs on the upgrade's new launch
// configuration, then flips a copy of it. Its mere existence is not
// enough for a flip: the upgrade creates the launch configuration and
// only then switches the group onto it, so a flip landing in between is
// overwritten by that switch and the fault never manifests. The flip
// copies the configuration the wait saw in use: a second describe of the
// group may be served stale and name the old one. Only when the wait
// timed out, or has no name to wait for, does the flip describe the group
// itself.
func (inj *Injector) flipInUse(ctx context.Context, newLCName, dim string) error {
	inUse := ""
	return inj.waitUntil(ctx, newLCName, func() bool {
		asg, err := inj.cloud.DescribeAutoScalingGroup(ctx, inj.cluster.ASGName)
		if err == nil && asg.LaunchConfigName == newLCName {
			inUse = newLCName
		}
		return inUse != ""
	}, func() error { return inj.flipLaunchConfig(ctx, dim, inUse) })
}

// waitUntil polls ready once a second of simulated time, then applies f.
// If ready never holds within 2 minutes of simulated time (or newLCName
// is empty), f is applied anyway.
func (inj *Injector) waitUntil(ctx context.Context, newLCName string, ready func() bool, f func() error) error {
	deadline := inj.clk.Now().Add(2 * time.Minute)
	for newLCName != "" && inj.clk.Now().Before(deadline) && !ready() {
		if err := inj.clk.Sleep(ctx, time.Second); err != nil {
			return err
		}
	}
	return f()
}

// Storm models a spot-capacity interruption storm: after delay, count
// in-service instances of the cluster's group are reclaimed, interval
// apart. The terminations go through the plain TerminateInstance API —
// the "operator" principal in the audit trail — so the
// no-external-termination diagnosis test attributes them, exactly like
// the paper's termination interference (§V.B). Storm is the ground truth
// of the spot-rebalance scenario, not one of the 8 fault kinds.
func (inj *Injector) Storm(ctx context.Context, count int, delay, interval time.Duration) error {
	if err := inj.clk.Sleep(ctx, delay); err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if i > 0 {
			if err := inj.clk.Sleep(ctx, interval); err != nil {
				return err
			}
		}
		// The reclamation service is external to the application's account:
		// it rides out throttling instead of giving up.
		instances, err := inj.cloud.DescribeInstances(ctx)
		for err != nil && simaws.IsRetryable(err) {
			if serr := inj.clk.Sleep(ctx, time.Second); serr != nil {
				return serr
			}
			instances, err = inj.cloud.DescribeInstances(ctx)
		}
		if err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		var candidates []string
		for _, inst := range instances {
			if inst.ASGName == inj.cluster.ASGName && inst.State == simaws.StateInService {
				candidates = append(candidates, inst.ID)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		victim := candidates[inj.rng.Intn(len(candidates))]
		err = inj.cloud.TerminateInstance(ctx, victim)
		for err != nil && simaws.IsRetryable(err) {
			if serr := inj.clk.Sleep(ctx, time.Second); serr != nil {
				return serr
			}
			err = inj.cloud.TerminateInstance(ctx, victim)
		}
		if err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
	}
	return nil
}

// Interference is a legitimate simultaneous operation used to confound
// detection (§V.B).
type Interference int

// Interference kinds.
const (
	// InterferenceScaleIn shrinks the ASG by one instance.
	InterferenceScaleIn Interference = iota + 1
	// InterferenceRandomTermination terminates a random in-service
	// instance outside the process.
	InterferenceRandomTermination
	// InterferenceAccountPressure has the co-tenant team consume account
	// instance capacity.
	InterferenceAccountPressure
)

// String implements fmt.Stringer.
func (i Interference) String() string {
	switch i {
	case InterferenceScaleIn:
		return "scale-in"
	case InterferenceRandomTermination:
		return "random-termination"
	case InterferenceAccountPressure:
		return "account-pressure"
	default:
		return "unknown"
	}
}

// Interfere applies the interference after delay of simulated time.
func (inj *Injector) Interfere(ctx context.Context, kind Interference, delay time.Duration) error {
	if err := inj.clk.Sleep(ctx, delay); err != nil {
		return err
	}
	switch kind {
	case InterferenceScaleIn:
		asg, err := inj.cloud.DescribeAutoScalingGroup(ctx, inj.cluster.ASGName)
		if err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		want := asg.Desired - 1
		if want < asg.Min {
			want = asg.Min
		}
		if err := inj.cloud.SetDesiredCapacity(ctx, inj.cluster.ASGName, want); err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		return nil
	case InterferenceRandomTermination:
		instances, err := inj.cloud.DescribeInstances(ctx)
		if err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		var candidates []string
		for _, inst := range instances {
			if inst.ASGName == inj.cluster.ASGName && inst.State == simaws.StateInService {
				candidates = append(candidates, inst.ID)
			}
		}
		if len(candidates) == 0 {
			return nil
		}
		victim := candidates[inj.rng.Intn(len(candidates))]
		if err := inj.cloud.TerminateInstance(ctx, victim); err != nil {
			return fmt.Errorf("faultinject: %w", err)
		}
		return nil
	case InterferenceAccountPressure:
		inj.cloud.SetExternalUsage(25 + inj.rng.Intn(10))
		return nil
	default:
		return fmt.Errorf("faultinject: unknown interference %d", kind)
	}
}
