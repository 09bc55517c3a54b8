package assertion

import (
	"context"
	"strconv"
	"strings"
	"time"

	"poddiagnosis/internal/consistentapi"
	"poddiagnosis/internal/simaws"
)

// Check ids of the pre-defined assertion library. One fault tree exists
// per (failing) assertion, keyed by these ids.
const (
	CheckASGInstanceCount      = "asg-instance-count"
	CheckASGVersionCount       = "asg-version-count"
	CheckASGUsesAMI            = "asg-uses-ami"
	CheckASGUsesKeyPair        = "asg-uses-keypair"
	CheckASGUsesSG             = "asg-uses-sg"
	CheckASGUsesType           = "asg-uses-instance-type"
	CheckAMIAvailable          = "ami-available"
	CheckKeyPairExists         = "keypair-exists"
	CheckSGExists              = "sg-exists"
	CheckLCExists              = "lc-exists"
	CheckELBReachable          = "elb-reachable"
	CheckELBInstanceCount      = "elb-instance-count"
	CheckInstanceRegistered    = "instance-registered"
	CheckInstanceVersion       = "instance-version"
	CheckInstanceHealthy       = "instance-healthy"
	CheckNoFailedLaunches      = "no-failed-launches"
	CheckNoLimitExceeded       = "no-limit-exceeded"
	CheckNoScaleIn             = "no-scale-in"
	CheckNoExternalTermination = "no-external-termination"
)

// DefaultRegistry returns a registry pre-populated with the assertion
// library: the pre-defined cloud-resource checks operators use directly
// (§III.B.3) plus the diagnosis tests the fault trees reference.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, c := range libraryChecks() {
		r.Register(c)
	}
	return r
}

// asgLCWhere resolves the launch configuration an ASG currently uses,
// retrying through eventual consistency while the expectation want is
// unmet (the paper's read-after-write masking, §IV). It returns the last
// observed configuration and whether the expectation held.
func asgLCWhere(ctx context.Context, client *consistentapi.Client, asgName string, want func(simaws.LaunchConfig) bool) (simaws.LaunchConfig, bool, error) {
	fetch := func(ctx context.Context) (simaws.LaunchConfig, error) {
		asg, err := client.Cloud().DescribeAutoScalingGroup(ctx, asgName)
		if err != nil {
			return simaws.LaunchConfig{}, err
		}
		return client.Cloud().DescribeLaunchConfiguration(ctx, asg.LaunchConfigName)
	}
	return consistentapi.Eventually(ctx, client, fetch, want)
}

// configCheck implements one asg-uses-* check: the launch configuration in
// effect must satisfy match; mismatches are retried through the consistent
// API layer before being reported as violations.
func configCheck(ctx context.Context, client *consistentapi.Client, p Params, checkID string,
	match func(simaws.LaunchConfig) bool, passMsg, failMsg func(simaws.LaunchConfig) string) Result {
	asgName, err := p.Str(ParamASG)
	if err != nil {
		return evalErr(checkID, p, err)
	}
	lc, ok, err := asgLCWhere(ctx, client, asgName, match)
	if ok {
		return pass(checkID, p, passMsg(lc))
	}
	if err != nil && lc.Name == "" {
		return evalErr(checkID, p, err)
	}
	return fail(checkID, p, failMsg(lc))
}

// activityWindow parses the look-back window parameter, defaulting to 5
// minutes.
func activityWindow(p Params) time.Duration {
	if v, ok := p[ParamWindow]; ok {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return 5 * time.Minute
}

func libraryChecks() []Check {
	return []Check{
		noExternalTerminationCheck(),
		{
			ID:          CheckASGInstanceCount,
			Description: "the ASG {asgid} has {want} live instances",
			HighLevel:   true,
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				asgName, err := p.Str(ParamASG)
				if err != nil {
					return evalErr(CheckASGInstanceCount, p, err)
				}
				want, err := p.Int(ParamWant)
				if err != nil {
					return evalErr(CheckASGInstanceCount, p, err)
				}
				count := func(instances []simaws.Instance) int {
					n := 0
					for _, inst := range instances {
						if inst.ASGName == asgName && inst.State == simaws.StateInService {
							n++
						}
					}
					return n
				}
				instances, ok, err := client.DescribeInstances(ctx, func(list []simaws.Instance) bool {
					return count(list) >= want
				})
				if err != nil && instances == nil {
					return evalErr(CheckASGInstanceCount, p, err)
				}
				if ok {
					return pass(CheckASGInstanceCount, p, "ASG "+asgName+" has "+strconv.Itoa(want)+" instances.")
				}
				return fail(CheckASGInstanceCount, p, "ASG "+asgName+" has "+strconv.Itoa(count(instances))+" instances, want "+strconv.Itoa(want)+".")
			},
		},
		{
			ID:          CheckASGVersionCount,
			Description: "the system has {want} instances with version {version}",
			HighLevel:   true,
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				asgName, err := p.Str(ParamASG)
				if err != nil {
					return evalErr(CheckASGVersionCount, p, err)
				}
				version, err := p.Str(ParamVersion)
				if err != nil {
					return evalErr(CheckASGVersionCount, p, err)
				}
				want, err := p.Int(ParamWant)
				if err != nil {
					return evalErr(CheckASGVersionCount, p, err)
				}
				count := func(instances []simaws.Instance) int {
					n := 0
					for _, inst := range instances {
						if inst.ASGName == asgName && inst.State == simaws.StateInService && inst.Version == version {
							n++
						}
					}
					return n
				}
				instances, ok, err := client.DescribeInstances(ctx, func(list []simaws.Instance) bool {
					return count(list) >= want
				})
				if err != nil && instances == nil {
					return evalErr(CheckASGVersionCount, p, err)
				}
				if ok {
					return pass(CheckASGVersionCount, p, "ASG "+asgName+" has "+strconv.Itoa(want)+" instances with version "+version+".")
				}
				return fail(CheckASGVersionCount, p, "ASG "+asgName+" has "+strconv.Itoa(count(instances))+
					" instances with version "+version+", want "+strconv.Itoa(want)+".")
			},
		},
		{
			ID:          CheckASGUsesAMI,
			Description: "the ASG {asgid} is using a correct AMI {amiid}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				ami, err := p.Str(ParamAMI)
				if err != nil {
					return evalErr(CheckASGUsesAMI, p, err)
				}
				asgName := p[ParamASG]
				return configCheck(ctx, client, p, CheckASGUsesAMI,
					func(lc simaws.LaunchConfig) bool { return lc.ImageID == ami },
					func(simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a correct AMI."
					},
					func(lc simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a wrong AMI (" + lc.ImageID + ", want " + ami + ")."
					})
			},
		},
		{
			ID:          CheckASGUsesKeyPair,
			Description: "the ASG {asgid} is using a correct key pair {keyname}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				key, err := p.Str(ParamKeyPair)
				if err != nil {
					return evalErr(CheckASGUsesKeyPair, p, err)
				}
				asgName := p[ParamASG]
				return configCheck(ctx, client, p, CheckASGUsesKeyPair,
					func(lc simaws.LaunchConfig) bool { return lc.KeyName == key },
					func(simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a correct key pair."
					},
					func(lc simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a wrong key pair (" + lc.KeyName + ", want " + key + ")."
					})
			},
		},
		{
			ID:          CheckASGUsesSG,
			Description: "the ASG {asgid} is using a correct security group {sgname}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				sg, err := p.Str(ParamSG)
				if err != nil {
					return evalErr(CheckASGUsesSG, p, err)
				}
				asgName := p[ParamASG]
				hasSG := func(lc simaws.LaunchConfig) bool {
					for _, g := range lc.SecurityGroups {
						if g == sg {
							return true
						}
					}
					return false
				}
				return configCheck(ctx, client, p, CheckASGUsesSG, hasSG,
					func(simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a correct security group."
					},
					func(lc simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a wrong security group ([" + strings.Join(lc.SecurityGroups, " ") + "], want " + sg + ")."
					})
			},
		},
		{
			ID:          CheckASGUsesType,
			Description: "the ASG {asgid} is using a correct instance type {instancetype}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				typ, err := p.Str(ParamInstanceType)
				if err != nil {
					return evalErr(CheckASGUsesType, p, err)
				}
				asgName := p[ParamASG]
				return configCheck(ctx, client, p, CheckASGUsesType,
					func(lc simaws.LaunchConfig) bool { return lc.InstanceType == typ },
					func(simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a correct instance type."
					},
					func(lc simaws.LaunchConfig) string {
						return "The ASG " + asgName + " is using a wrong instance type (" + lc.InstanceType + ", want " + typ + ")."
					})
			},
		},
		{
			ID:          CheckAMIAvailable,
			Description: "the AMI {amiid} is available",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				ami, err := p.Str(ParamAMI)
				if err != nil {
					return evalErr(CheckAMIAvailable, p, err)
				}
				img, _, err := client.DescribeImage(ctx, ami, nil)
				if simaws.IsNotFound(err) {
					return fail(CheckAMIAvailable, p, "The AMI "+ami+" does not exist.")
				}
				if err != nil {
					return evalErr(CheckAMIAvailable, p, err)
				}
				if img.Available {
					return pass(CheckAMIAvailable, p, "The AMI "+ami+" is available.")
				}
				return fail(CheckAMIAvailable, p, "The AMI "+ami+" is deregistered.")
			},
		},
		{
			ID:          CheckKeyPairExists,
			Description: "the key pair {keyname} exists",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				key, err := p.Str(ParamKeyPair)
				if err != nil {
					return evalErr(CheckKeyPairExists, p, err)
				}
				_, _, err = client.DescribeKeyPair(ctx, key)
				if simaws.IsNotFound(err) {
					return fail(CheckKeyPairExists, p, "The key pair "+key+" does not exist.")
				}
				if err != nil {
					return evalErr(CheckKeyPairExists, p, err)
				}
				return pass(CheckKeyPairExists, p, "The key pair "+key+" exists.")
			},
		},
		{
			ID:          CheckSGExists,
			Description: "the security group {sgname} exists",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				sg, err := p.Str(ParamSG)
				if err != nil {
					return evalErr(CheckSGExists, p, err)
				}
				_, _, err = client.DescribeSecurityGroup(ctx, sg)
				if simaws.IsNotFound(err) {
					return fail(CheckSGExists, p, "The security group "+sg+" does not exist.")
				}
				if err != nil {
					return evalErr(CheckSGExists, p, err)
				}
				return pass(CheckSGExists, p, "The security group "+sg+" exists.")
			},
		},
		{
			ID:          CheckLCExists,
			Description: "the launch configuration {lcname} exists",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				lcName, err := p.Str(ParamLC)
				if err != nil {
					return evalErr(CheckLCExists, p, err)
				}
				lc, _, err := client.DescribeLaunchConfig(ctx, lcName, nil)
				if simaws.IsNotFound(err) {
					return fail(CheckLCExists, p, "The launch configuration "+lcName+" does not exist.")
				}
				if err != nil {
					return evalErr(CheckLCExists, p, err)
				}
				if want, ok := p[ParamAMI]; ok && want != "" && lc.ImageID != want {
					return fail(CheckLCExists, p, "The launch configuration "+lcName+" uses AMI "+lc.ImageID+", want "+want+".")
				}
				return pass(CheckLCExists, p, "The launch configuration "+lcName+" exists.")
			},
		},
		{
			ID:          CheckELBReachable,
			Description: "the load balancer {elbname} is reachable",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				elb, err := p.Str(ParamELB)
				if err != nil {
					return evalErr(CheckELBReachable, p, err)
				}
				_, _, err = client.DescribeELB(ctx, elb, nil)
				if simaws.IsNotFound(err) {
					return fail(CheckELBReachable, p, "The load balancer "+elb+" does not exist.")
				}
				if simaws.ErrorCode(err) == simaws.ErrCodeServiceUnavailable {
					return fail(CheckELBReachable, p, "The ELB service is unavailable.")
				}
				if err != nil {
					return evalErr(CheckELBReachable, p, err)
				}
				return pass(CheckELBReachable, p, "The load balancer "+elb+" is reachable.")
			},
		},
		{
			ID:          CheckELBInstanceCount,
			Description: "the load balancer {elbname} has {want} in-service instances",
			HighLevel:   true,
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				elbName, err := p.Str(ParamELB)
				if err != nil {
					return evalErr(CheckELBInstanceCount, p, err)
				}
				want, err := p.Int(ParamWant)
				if err != nil {
					return evalErr(CheckELBInstanceCount, p, err)
				}
				elb, ok, err := client.DescribeELB(ctx, elbName, func(lb simaws.LoadBalancer) bool {
					return len(lb.Instances) >= want
				})
				if simaws.IsNotFound(err) || simaws.ErrorCode(err) == simaws.ErrCodeServiceUnavailable {
					// A missing or disrupted ELB definitively violates the
					// registration expectation.
					return fail(CheckELBInstanceCount, p, "The load balancer "+elbName+" is unavailable: "+err.Error())
				}
				if err != nil && elb.Name == "" {
					return evalErr(CheckELBInstanceCount, p, err)
				}
				if ok {
					return pass(CheckELBInstanceCount, p, "ELB "+elbName+" has "+strconv.Itoa(want)+" registered instances.")
				}
				return fail(CheckELBInstanceCount, p, "ELB "+elbName+" has "+strconv.Itoa(len(elb.Instances))+" registered instances, want "+strconv.Itoa(want)+".")
			},
		},
		{
			ID:          CheckInstanceRegistered,
			Description: "instance {instanceid} is registered with {elbname}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				elbName, err := p.Str(ParamELB)
				if err != nil {
					return evalErr(CheckInstanceRegistered, p, err)
				}
				id, err := p.Str(ParamInstance)
				if err != nil {
					return evalErr(CheckInstanceRegistered, p, err)
				}
				elb, ok, err := client.DescribeELB(ctx, elbName, func(lb simaws.LoadBalancer) bool {
					for _, reg := range lb.Instances {
						if reg == id {
							return true
						}
					}
					return false
				})
				if err != nil && elb.Name == "" {
					return evalErr(CheckInstanceRegistered, p, err)
				}
				if ok {
					return pass(CheckInstanceRegistered, p, "Instance "+id+" is registered with ELB "+elbName+".")
				}
				return fail(CheckInstanceRegistered, p, "Instance "+id+" is not registered with ELB "+elbName+".")
			},
		},
		{
			ID:          CheckInstanceVersion,
			Description: "instance {instanceid} runs version {version}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				id, err := p.Str(ParamInstance)
				if err != nil {
					return evalErr(CheckInstanceVersion, p, err)
				}
				version, err := p.Str(ParamVersion)
				if err != nil {
					return evalErr(CheckInstanceVersion, p, err)
				}
				inst, _, err := client.DescribeInstance(ctx, id, nil)
				if simaws.IsNotFound(err) {
					return fail(CheckInstanceVersion, p, "Instance "+id+" does not exist.")
				}
				if err != nil {
					return evalErr(CheckInstanceVersion, p, err)
				}
				if inst.Version == version {
					return pass(CheckInstanceVersion, p, "Instance "+id+" runs version "+version+".")
				}
				return fail(CheckInstanceVersion, p, "Instance "+id+" runs version "+inst.Version+", want "+version+".")
			},
		},
		{
			ID:          CheckInstanceHealthy,
			Description: "instance {instanceid} is in service",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				id, err := p.Str(ParamInstance)
				if err != nil {
					return evalErr(CheckInstanceHealthy, p, err)
				}
				inst, ok, err := client.DescribeInstance(ctx, id, func(i simaws.Instance) bool {
					return i.State == simaws.StateInService
				})
				if simaws.IsNotFound(err) {
					return fail(CheckInstanceHealthy, p, "Instance "+id+" does not exist.")
				}
				if err != nil && inst.ID == "" {
					return evalErr(CheckInstanceHealthy, p, err)
				}
				if ok {
					return pass(CheckInstanceHealthy, p, "Instance "+id+" is in service.")
				}
				return fail(CheckInstanceHealthy, p, "Instance "+id+" is in state "+inst.State.String()+".")
			},
		},
		{
			ID:          CheckNoFailedLaunches,
			Description: "the ASG {asgid} has no recent failed launch activities",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				return activityCheck(ctx, client, p, CheckNoFailedLaunches,
					func(a simaws.Activity) bool { return a.Status == simaws.ActivityFailed },
					"failed launch activity")
			},
		},
		{
			ID:          CheckNoLimitExceeded,
			Description: "the account instance limit was not reached for ASG {asgid}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				return activityCheck(ctx, client, p, CheckNoLimitExceeded,
					func(a simaws.Activity) bool {
						return a.Status == simaws.ActivityFailed &&
							strings.Contains(a.StatusMessage, simaws.ErrCodeInstanceLimitExceeded)
					},
					"instance-limit-exceeded activity")
			},
		},
		{
			ID:          CheckNoScaleIn,
			Description: "no simultaneous scale-in happened on ASG {asgid}",
			Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
				return activityCheck(ctx, client, p, CheckNoScaleIn,
					func(a simaws.Activity) bool {
						return strings.Contains(a.Description, "Setting desired capacity")
					},
					"desired-capacity change")
			},
		},
	}
}

// noExternalTerminationCheck consults the CloudTrail-like audit trail for
// operator-initiated instance terminations within the window. Without the
// trail enabled the check is inconclusive — exactly the paper's situation
// ("we were able to diagnose when the root cause was ASG scale-in, but not
// when the root cause was termination of instances", §V.B); with the trail
// enabled but slowly delivered, recent terminations are invisible and the
// check wrongly passes (§VII's CloudTrail staleness).
func noExternalTerminationCheck() Check {
	return Check{
		ID:          CheckNoExternalTermination,
		Description: "no instance of ASG {asgid} was terminated outside the process",
		Eval: func(ctx context.Context, client *consistentapi.Client, p Params) Result {
			records, err := client.Cloud().LookupAuditEvents(ctx, "TerminateInstances")
			if err != nil {
				return evalErr(CheckNoExternalTermination, p, err)
			}
			cutoff := client.Clock().Now().Add(-activityWindow(p))
			for _, r := range records {
				if r.At.Before(cutoff) {
					continue
				}
				if r.Principal == "operator" {
					return fail(CheckNoExternalTermination, p, "Instance "+r.Resource+
						" was terminated outside the process at "+r.At.Format("15:04:05")+".")
				}
			}
			return pass(CheckNoExternalTermination, p, "No external instance termination in the audit trail.")
		},
	}
}

// activityCheck scans recent scaling activities; the check fails when any
// activity within the window matches bad.
func activityCheck(ctx context.Context, client *consistentapi.Client, p Params, checkID string,
	bad func(simaws.Activity) bool, what string) Result {
	asgName, err := p.Str(ParamASG)
	if err != nil {
		return evalErr(checkID, p, err)
	}
	acts, _, err := client.DescribeScalingActivities(ctx, asgName, nil)
	if err != nil {
		return evalErr(checkID, p, err)
	}
	cutoff := client.Clock().Now().Add(-activityWindow(p))
	for _, a := range acts {
		if a.StartTime.Before(cutoff) {
			continue
		}
		if bad(a) {
			return fail(checkID, p, "ASG "+asgName+" has a recent "+what+": "+a.Description+" "+a.StatusMessage)
		}
	}
	return pass(checkID, p, "ASG "+asgName+" has no recent "+what+".")
}
