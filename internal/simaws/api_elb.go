package simaws

import "context"

// elbGuard returns a ServiceUnavailable error while the ELB control plane
// is disrupted. Caller must hold mu.
func (c *Cloud) elbGuard(op string) error {
	if c.elbDisrupted {
		return newErr(op, ErrCodeServiceUnavailable, "the ELB service is currently unavailable")
	}
	return nil
}

// CreateLoadBalancer creates an ELB with the given name.
func (c *Cloud) CreateLoadBalancer(ctx context.Context, name string) error {
	const op = "CreateLoadBalancer"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.elbGuard(op); err != nil {
		return err
	}
	if _, ok := c.elbs[name]; ok {
		return newErr(op, ErrCodeAlreadyExists, "load balancer %q already exists", name)
	}
	c.elbs[name] = &LoadBalancer{Name: name, CreatedAt: c.now()}
	return nil
}

// DeleteLoadBalancer removes an ELB.
func (c *Cloud) DeleteLoadBalancer(ctx context.Context, name string) error {
	const op = "DeleteLoadBalancer"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.elbGuard(op); err != nil {
		return err
	}
	if _, ok := c.elbs[name]; !ok {
		return newErr(op, ErrCodeLoadBalancerNotFound, "load balancer %q not found", name)
	}
	delete(c.elbs, name)
	c.publish("load balancer "+name+" deleted", map[string]string{"elbname": name})
	return nil
}

// DescribeLoadBalancer returns the named ELB.
func (c *Cloud) DescribeLoadBalancer(ctx context.Context, name string) (LoadBalancer, error) {
	const op = "DescribeLoadBalancers"
	if err := c.apiCall(ctx, op); err != nil {
		return LoadBalancer{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view() // drawn before the guard answers, so a disruption does not shift the seeded sequence
	if err := c.elbGuard(op); err != nil {
		return LoadBalancer{}, err
	}
	elb, ok := v.elbs[name]
	if !ok {
		return LoadBalancer{}, newErr(op, ErrCodeLoadBalancerNotFound, "load balancer %q not found", name)
	}
	return copyELB(elb), nil
}

// RegisterInstancesWithLoadBalancer adds instances to an ELB.
func (c *Cloud) RegisterInstancesWithLoadBalancer(ctx context.Context, name string, instanceIDs ...string) error {
	const op = "RegisterInstancesWithLoadBalancer"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.elbGuard(op); err != nil {
		return err
	}
	elb, ok := c.elbs[name]
	if !ok {
		return newErr(op, ErrCodeLoadBalancerNotFound, "load balancer %q not found", name)
	}
	for _, id := range instanceIDs {
		inst, ok := c.instances[id]
		if !ok || !inst.Live() {
			return newErr(op, ErrCodeInvalidInstance, "the instance id %q does not exist", id)
		}
		if !containsString(elb.Instances, id) {
			elb.Instances = append(elb.Instances, id)
		}
	}
	return nil
}

// DeregisterInstancesFromLoadBalancer removes instances from an ELB.
// Deregistering an unknown instance is a no-op, as on AWS.
func (c *Cloud) DeregisterInstancesFromLoadBalancer(ctx context.Context, name string, instanceIDs ...string) error {
	const op = "DeregisterInstancesFromLoadBalancer"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.elbGuard(op); err != nil {
		return err
	}
	elb, ok := c.elbs[name]
	if !ok {
		return newErr(op, ErrCodeLoadBalancerNotFound, "load balancer %q not found", name)
	}
	for _, id := range instanceIDs {
		removeString(&elb.Instances, id)
	}
	return nil
}

// DescribeInstanceHealth returns the health of every instance registered
// with the ELB.
func (c *Cloud) DescribeInstanceHealth(ctx context.Context, name string) ([]InstanceHealth, error) {
	const op = "DescribeInstanceHealth"
	if err := c.apiCall(ctx, op); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.view() // drawn before the guard answers, as in DescribeLoadBalancer
	if err := c.elbGuard(op); err != nil {
		return nil, err
	}
	elb, ok := v.elbs[name]
	if !ok {
		return nil, newErr(op, ErrCodeLoadBalancerNotFound, "load balancer %q not found", name)
	}
	out := make([]InstanceHealth, 0, len(elb.Instances))
	for _, id := range elb.Instances {
		h := InstanceHealth{InstanceID: id, State: "OutOfService", Description: "Instance is not known"}
		if inst, ok := v.instances[id]; ok {
			if inst.State == StateInService {
				h.State = "InService"
				h.Description = ""
			} else {
				h.Description = "Instance is in state " + inst.State.String()
			}
		}
		out = append(out, h)
	}
	return out, nil
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
