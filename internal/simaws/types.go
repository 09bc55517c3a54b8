// Package simaws implements an in-process simulation of the subset of AWS
// that the POD-Diagnosis paper's evaluation exercises: EC2 instances,
// machine images (AMIs), key pairs, security groups, launch configurations,
// auto scaling groups (ASGs) with a background reconciler, and elastic load
// balancers (ELBs).
//
// The simulator reproduces the observable behaviours the paper's faults and
// diagnosis depend on: AWS-style API error codes, jittered API latency,
// per-account request throttling, an account instance limit, ELB service
// disruptions, and eventual consistency (describe calls may serve a stale
// snapshot of the world; see consistency.go).
package simaws

import "time"

// InstanceState is the lifecycle state of an EC2 instance.
type InstanceState int

// Instance lifecycle states.
const (
	StatePending InstanceState = iota + 1
	StateInService
	StateTerminating
	StateTerminated
)

// String implements fmt.Stringer.
func (s InstanceState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateInService:
		return "in-service"
	case StateTerminating:
		return "terminating"
	case StateTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// Image is a virtual machine image (AMI).
type Image struct {
	// ID is the AMI id, e.g. "ami-750c9e4f".
	ID string `json:"imageId"`
	// Name is a human-readable label.
	Name string `json:"name"`
	// Version is the application version baked into the image, e.g. "v2".
	Version string `json:"version"`
	// Services lists the application services the image runs, e.g.
	// redis, logstash, elasticsearch, kibana.
	Services []string `json:"services"`
	// Available is false once the image has been deregistered.
	Available bool `json:"available"`
}

// KeyPair is an SSH key pair.
type KeyPair struct {
	// Name identifies the key pair.
	Name string `json:"keyName"`
	// Fingerprint is a fake fingerprint for realism.
	Fingerprint string `json:"keyFingerprint"`
}

// SecurityGroup is a named firewall configuration.
type SecurityGroup struct {
	// ID is the group id, e.g. "sg-1a2b3c".
	ID string `json:"groupId"`
	// Name is the group name.
	Name string `json:"groupName"`
	// IngressPorts are the open inbound TCP ports.
	IngressPorts []int `json:"ingressPorts"`
}

// LaunchConfig describes how an ASG launches instances.
type LaunchConfig struct {
	// Name identifies the launch configuration.
	Name string `json:"launchConfigurationName"`
	// ImageID is the AMI to launch from.
	ImageID string `json:"imageId"`
	// KeyName is the key pair installed on new instances.
	KeyName string `json:"keyName"`
	// SecurityGroups are the security group names applied to new
	// instances.
	SecurityGroups []string `json:"securityGroups"`
	// InstanceType is the EC2 instance type, e.g. "m1.small".
	InstanceType string `json:"instanceType"`
	// CreatedAt is the creation time.
	CreatedAt time.Time `json:"createdTime"`
}

// Instance is a virtual machine.
type Instance struct {
	// ID is the instance id, e.g. "i-7df34041".
	ID string `json:"instanceId"`
	// ImageID is the AMI the instance was launched from.
	ImageID string `json:"imageId"`
	// Version is the application version of that AMI.
	Version string `json:"version"`
	// Services are the application services running on the instance.
	Services []string `json:"services"`
	// KeyName is the installed key pair.
	KeyName string `json:"keyName"`
	// SecurityGroups are the applied security group names.
	SecurityGroups []string `json:"securityGroups"`
	// InstanceType is the EC2 instance type.
	InstanceType string `json:"instanceType"`
	// LaunchConfigName records which launch configuration produced the
	// instance ("" for directly launched instances).
	LaunchConfigName string `json:"launchConfigurationName"`
	// ASGName is the owning auto scaling group ("" if none).
	ASGName string `json:"autoScalingGroupName"`
	// State is the lifecycle state.
	State InstanceState `json:"state"`
	// LaunchTime is when the launch was initiated.
	LaunchTime time.Time `json:"launchTime"`
	// ReadyAt is when a pending instance becomes in-service.
	ReadyAt time.Time `json:"-"`
	// TerminateAt is when a terminating instance becomes terminated.
	TerminateAt time.Time `json:"-"`
}

// Live reports whether the instance counts against capacity (pending,
// in-service, or still terminating).
func (i *Instance) Live() bool {
	return i.State == StatePending || i.State == StateInService || i.State == StateTerminating
}

// ASG is an auto scaling group.
type ASG struct {
	// Name identifies the group.
	Name string `json:"autoScalingGroupName"`
	// LaunchConfigName is the launch configuration used for new
	// instances.
	LaunchConfigName string `json:"launchConfigurationName"`
	// Min, Max and Desired are the capacity bounds.
	Min     int `json:"minSize"`
	Max     int `json:"maxSize"`
	Desired int `json:"desiredCapacity"`
	// LoadBalancers are the attached ELB names.
	LoadBalancers []string `json:"loadBalancerNames"`
	// Instances are the ids of member instances (live only).
	Instances []string `json:"instances"`
	// Activities is the scaling activity history, oldest first, as the
	// cloud stores it; DescribeScalingActivities returns it newest first
	// and DescribeAutoScalingGroup leaves it nil.
	Activities []Activity `json:"-"`
}

// ActivityStatus is the outcome of a scaling activity.
type ActivityStatus string

// Scaling activity outcomes.
const (
	ActivitySuccessful ActivityStatus = "Successful"
	ActivityFailed     ActivityStatus = "Failed"
	ActivityInProgress ActivityStatus = "InProgress"
)

// Activity is one entry of an ASG's scaling history, mirroring the AWS
// DescribeScalingActivities response.
type Activity struct {
	// ID identifies the activity.
	ID string `json:"activityId"`
	// ASGName is the owning group.
	ASGName string `json:"autoScalingGroupName"`
	// Description summarizes the action, e.g. "Launching a new EC2
	// instance: i-abc".
	Description string `json:"description"`
	// Cause explains why the activity happened.
	Cause string `json:"cause"`
	// Status is the outcome.
	Status ActivityStatus `json:"statusCode"`
	// StatusMessage carries failure details.
	StatusMessage string `json:"statusMessage"`
	// StartTime is when the activity began.
	StartTime time.Time `json:"startTime"`
}

// LoadBalancer is an elastic load balancer.
type LoadBalancer struct {
	// Name identifies the load balancer.
	Name string `json:"loadBalancerName"`
	// Instances are the registered instance ids.
	Instances []string `json:"instances"`
	// CreatedAt is the creation time.
	CreatedAt time.Time `json:"createdTime"`
}

// InstanceHealth is one entry of an ELB health description.
type InstanceHealth struct {
	// InstanceID is the registered instance.
	InstanceID string `json:"instanceId"`
	// State is "InService" or "OutOfService".
	State string `json:"state"`
	// Description explains an OutOfService state.
	Description string `json:"description"`
}
