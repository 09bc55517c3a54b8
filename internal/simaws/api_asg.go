package simaws

import (
	"context"
	"fmt"
	"slices"
)

// CreateLaunchConfiguration registers a launch configuration. Referenced
// resources are validated at creation time, as on AWS.
func (c *Cloud) CreateLaunchConfiguration(ctx context.Context, lc LaunchConfig) error {
	const op = "CreateLaunchConfiguration"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lc.Name == "" {
		return newErr(op, ErrCodeValidationError, "launch configuration name must not be empty")
	}
	if _, ok := c.lcs[lc.Name]; ok {
		return newErr(op, ErrCodeAlreadyExists, "launch configuration %q already exists", lc.Name)
	}
	img, ok := c.images[lc.ImageID]
	if !ok || !img.Available {
		return newErr(op, ErrCodeInvalidAMINotFound, "the image id %q does not exist", lc.ImageID)
	}
	if _, ok := c.keyPairs[lc.KeyName]; !ok {
		return newErr(op, ErrCodeInvalidKeyPair, "the key pair %q does not exist", lc.KeyName)
	}
	for _, sg := range lc.SecurityGroups {
		if _, ok := c.sgs[sg]; !ok {
			return newErr(op, ErrCodeInvalidGroupNotFound, "the security group %q does not exist", sg)
		}
	}
	stored := copyLC(&lc)
	stored.CreatedAt = c.now()
	c.lcs[lc.Name] = &stored
	return nil
}

// DeleteLaunchConfiguration removes a launch configuration.
func (c *Cloud) DeleteLaunchConfiguration(ctx context.Context, name string) error {
	const op = "DeleteLaunchConfiguration"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.lcs[name]; !ok {
		return newErr(op, ErrCodeLaunchConfigNotFound, "launch configuration %q not found", name)
	}
	delete(c.lcs, name)
	return nil
}

// DescribeLaunchConfiguration returns the named launch configuration.
func (c *Cloud) DescribeLaunchConfiguration(ctx context.Context, name string) (LaunchConfig, error) {
	const op = "DescribeLaunchConfigurations"
	if err := c.apiCall(ctx, op); err != nil {
		return LaunchConfig{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	lc, ok := c.view().lcs[name]
	if !ok {
		return LaunchConfig{}, newErr(op, ErrCodeLaunchConfigNotFound, "launch configuration %q not found", name)
	}
	return copyLC(lc), nil
}

// CreateAutoScalingGroup creates an ASG. The reconciler will launch
// instances toward the desired capacity on its next tick.
func (c *Cloud) CreateAutoScalingGroup(ctx context.Context, asg ASG) error {
	const op = "CreateAutoScalingGroup"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if asg.Name == "" {
		return newErr(op, ErrCodeValidationError, "auto scaling group name must not be empty")
	}
	if _, ok := c.asgs[asg.Name]; ok {
		return newErr(op, ErrCodeAlreadyExists, "auto scaling group %q already exists", asg.Name)
	}
	if _, ok := c.lcs[asg.LaunchConfigName]; !ok {
		return newErr(op, ErrCodeLaunchConfigNotFound, "launch configuration %q not found", asg.LaunchConfigName)
	}
	if asg.Min < 0 || asg.Max < asg.Min || asg.Desired < asg.Min || asg.Desired > asg.Max {
		return newErr(op, ErrCodeValidationError, "invalid capacity bounds min=%d desired=%d max=%d", asg.Min, asg.Desired, asg.Max)
	}
	for _, elb := range asg.LoadBalancers {
		if _, ok := c.elbs[elb]; !ok {
			return newErr(op, ErrCodeLoadBalancerNotFound, "load balancer %q not found", elb)
		}
	}
	stored := copyASG(&asg)
	stored.Instances = nil
	c.asgs[asg.Name] = &stored
	return nil
}

// DeleteAutoScalingGroup removes an ASG and terminates its members.
func (c *Cloud) DeleteAutoScalingGroup(ctx context.Context, name string) error {
	const op = "DeleteAutoScalingGroup"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	asg, ok := c.asgs[name]
	if !ok {
		return newErr(op, ErrCodeASGNotFound, "auto scaling group %q not found", name)
	}
	for _, id := range asg.Instances {
		if inst, ok := c.instances[id]; ok && inst.Live() {
			c.beginTerminate(inst, "ASG deletion")
		}
	}
	delete(c.asgs, name)
	return nil
}

// DescribeAutoScalingGroup returns the named ASG.
func (c *Cloud) DescribeAutoScalingGroup(ctx context.Context, name string) (ASG, error) {
	const op = "DescribeAutoScalingGroups"
	if err := c.apiCall(ctx, op); err != nil {
		return ASG{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	asg, ok := c.view().asgs[name]
	if !ok {
		return ASG{}, newErr(op, ErrCodeASGNotFound, "auto scaling group %q not found", name)
	}
	return copyASG(asg), nil
}

// UpdateAutoScalingGroup changes the launch configuration and/or capacity
// bounds of an ASG. Empty lcName or negative capacity values leave the
// respective setting unchanged.
func (c *Cloud) UpdateAutoScalingGroup(ctx context.Context, name, lcName string, min, max, desired int) error {
	const op = "UpdateAutoScalingGroup"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	asg, ok := c.asgs[name]
	if !ok {
		return newErr(op, ErrCodeASGNotFound, "auto scaling group %q not found", name)
	}
	if lcName != "" {
		if _, ok := c.lcs[lcName]; !ok {
			return newErr(op, ErrCodeLaunchConfigNotFound, "launch configuration %q not found", lcName)
		}
		c.auditRecord(op, name+"/"+lcName, "operator")
		asg.LaunchConfigName = lcName
	}
	if min >= 0 {
		asg.Min = min
	}
	if max >= 0 {
		asg.Max = max
	}
	if desired >= 0 {
		asg.Desired = desired
	}
	if asg.Max < asg.Min || asg.Desired < asg.Min || asg.Desired > asg.Max {
		return newErr(op, ErrCodeValidationError, "invalid capacity bounds min=%d desired=%d max=%d", asg.Min, asg.Desired, asg.Max)
	}
	return nil
}

// SetDesiredCapacity adjusts only the desired capacity, as used by the
// scale-in/out interference operations.
func (c *Cloud) SetDesiredCapacity(ctx context.Context, name string, desired int) error {
	const op = "SetDesiredCapacity"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	asg, ok := c.asgs[name]
	if !ok {
		return newErr(op, ErrCodeASGNotFound, "auto scaling group %q not found", name)
	}
	if desired < asg.Min || desired > asg.Max {
		return newErr(op, ErrCodeValidationError, "desired capacity %d outside [%d,%d]", desired, asg.Min, asg.Max)
	}
	c.auditRecord(op, name, "operator")
	c.addActivity(asg, ActivitySuccessful,
		fmt.Sprintf("Setting desired capacity to %d", desired),
		"a user request explicitly set group desired capacity", "")
	asg.Desired = desired
	return nil
}

// TerminateInstanceInAutoScalingGroup terminates a member instance. With
// decrementCapacity the desired capacity shrinks by one; without, the ASG
// replaces the instance — the mechanism Asgard's rolling upgrade relies on.
func (c *Cloud) TerminateInstanceInAutoScalingGroup(ctx context.Context, id string, decrementCapacity bool) error {
	const op = "TerminateInstanceInAutoScalingGroup"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok || inst.ASGName == "" {
		return newErr(op, ErrCodeInvalidInstance, "the instance id %q is not in an auto scaling group", id)
	}
	asg, ok := c.asgs[inst.ASGName]
	if !ok {
		return newErr(op, ErrCodeASGNotFound, "auto scaling group %q not found", inst.ASGName)
	}
	if decrementCapacity && asg.Desired > asg.Min {
		asg.Desired--
	}
	if inst.State == StateTerminating || inst.State == StateTerminated {
		return nil
	}
	c.auditRecord(op, id, "operation-process")
	c.beginTerminate(inst, "instance taken out of service at user request")
	return nil
}

// DescribeScalingActivities returns the activity history of an ASG,
// newest first.
func (c *Cloud) DescribeScalingActivities(ctx context.Context, name string) ([]Activity, error) {
	const op = "DescribeScalingActivities"
	if err := c.apiCall(ctx, op); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	asg, ok := c.view().asgs[name]
	if !ok {
		return nil, newErr(op, ErrCodeASGNotFound, "auto scaling group %q not found", name)
	}
	out := slices.Clone(asg.Activities) // stored oldest first
	slices.Reverse(out)
	return out, nil
}

// maxActivities bounds an ASG's retained scaling history.
const maxActivities = 200

// addActivity appends a scaling activity, dropping the oldest past
// maxActivities in place, and publishes a cloud log line. Caller must hold
// mu.
func (c *Cloud) addActivity(asg *ASG, status ActivityStatus, description, cause, statusMessage string) {
	act := Activity{
		ID:            c.newID("act"),
		ASGName:       asg.Name,
		Description:   description,
		Cause:         cause,
		Status:        status,
		StatusMessage: statusMessage,
		StartTime:     c.now(),
	}
	if len(asg.Activities) == maxActivities {
		asg.Activities = append(asg.Activities[:0], asg.Activities[1:]...)
	}
	asg.Activities = append(asg.Activities, act)
	fields := map[string]string{"asgid": asg.Name, "status": string(status)}
	c.publish(fmt.Sprintf("ASG %s activity: %s (%s) %s", asg.Name, description, status, statusMessage), fields)
}
