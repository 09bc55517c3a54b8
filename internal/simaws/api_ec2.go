package simaws

import (
	"context"
	"fmt"
	"sort"
)

// RegisterImage creates a new AMI with the given name, application version
// and service list, returning its id.
func (c *Cloud) RegisterImage(ctx context.Context, name, version string, services []string) (string, error) {
	const op = "RegisterImage"
	if err := c.apiCall(ctx, op); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.newID("ami")
	c.images[id] = &Image{
		ID:        id,
		Name:      name,
		Version:   version,
		Services:  append([]string(nil), services...),
		Available: true,
	}
	return id, nil
}

// DeregisterImage makes an AMI unavailable for future launches.
func (c *Cloud) DeregisterImage(ctx context.Context, id string) error {
	const op = "DeregisterImage"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.images[id]
	if !ok || !img.Available {
		return newErr(op, ErrCodeInvalidAMINotFound, "the image id %q does not exist", id)
	}
	img.Available = false
	c.auditRecord(op, id, "operator")
	c.publish(fmt.Sprintf("AMI %s deregistered", id), map[string]string{"amiid": id})
	return nil
}

// DescribeImage returns the AMI with the given id. Deregistered images
// report Available=false; unknown ids return InvalidAMIID.NotFound.
func (c *Cloud) DescribeImage(ctx context.Context, id string) (Image, error) {
	const op = "DescribeImages"
	if err := c.apiCall(ctx, op); err != nil {
		return Image{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	img, ok := c.view().images[id]
	if !ok {
		return Image{}, newErr(op, ErrCodeInvalidAMINotFound, "the image id %q does not exist", id)
	}
	return copyImage(img), nil
}

// ImportKeyPair registers a key pair under the given name.
func (c *Cloud) ImportKeyPair(ctx context.Context, name string) error {
	const op = "ImportKeyPair"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.keyPairs[name]; ok {
		return newErr(op, ErrCodeAlreadyExists, "key pair %q already exists", name)
	}
	c.keyPairs[name] = &KeyPair{
		Name:        name,
		Fingerprint: fmt.Sprintf("%02x:%02x:%02x:%02x", c.rng.Intn(256), c.rng.Intn(256), c.rng.Intn(256), c.rng.Intn(256)),
	}
	return nil
}

// DeleteKeyPair removes a key pair. AWS allows deleting key pairs that are
// still referenced by launch configurations; subsequent launches fail.
func (c *Cloud) DeleteKeyPair(ctx context.Context, name string) error {
	const op = "DeleteKeyPair"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.keyPairs[name]; !ok {
		return newErr(op, ErrCodeInvalidKeyPair, "the key pair %q does not exist", name)
	}
	delete(c.keyPairs, name)
	c.auditRecord(op, name, "operator")
	c.publish(fmt.Sprintf("key pair %s deleted", name), map[string]string{"keyname": name})
	return nil
}

// DescribeKeyPair returns the named key pair.
func (c *Cloud) DescribeKeyPair(ctx context.Context, name string) (KeyPair, error) {
	const op = "DescribeKeyPairs"
	if err := c.apiCall(ctx, op); err != nil {
		return KeyPair{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	kp, ok := c.view().keyPairs[name]
	if !ok {
		return KeyPair{}, newErr(op, ErrCodeInvalidKeyPair, "the key pair %q does not exist", name)
	}
	return *kp, nil
}

// CreateSecurityGroup creates a named security group with the given open
// ingress ports and returns its id.
func (c *Cloud) CreateSecurityGroup(ctx context.Context, name string, ingressPorts []int) (string, error) {
	const op = "CreateSecurityGroup"
	if err := c.apiCall(ctx, op); err != nil {
		return "", err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sgs[name]; ok {
		return "", newErr(op, ErrCodeAlreadyExists, "security group %q already exists", name)
	}
	id := c.newID("sg")
	c.sgs[name] = &SecurityGroup{
		ID:           id,
		Name:         name,
		IngressPorts: append([]int(nil), ingressPorts...),
	}
	return id, nil
}

// DeleteSecurityGroup removes a security group by name.
func (c *Cloud) DeleteSecurityGroup(ctx context.Context, name string) error {
	const op = "DeleteSecurityGroup"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sgs[name]; !ok {
		return newErr(op, ErrCodeInvalidGroupNotFound, "the security group %q does not exist", name)
	}
	delete(c.sgs, name)
	c.auditRecord(op, name, "operator")
	c.publish(fmt.Sprintf("security group %s deleted", name), map[string]string{"sgname": name})
	return nil
}

// DescribeSecurityGroup returns the named security group.
func (c *Cloud) DescribeSecurityGroup(ctx context.Context, name string) (SecurityGroup, error) {
	const op = "DescribeSecurityGroups"
	if err := c.apiCall(ctx, op); err != nil {
		return SecurityGroup{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	sg, ok := c.view().sgs[name]
	if !ok {
		return SecurityGroup{}, newErr(op, ErrCodeInvalidGroupNotFound, "the security group %q does not exist", name)
	}
	return copySG(sg), nil
}

// DescribeInstance returns one instance by id.
func (c *Cloud) DescribeInstance(ctx context.Context, id string) (Instance, error) {
	const op = "DescribeInstances"
	if err := c.apiCall(ctx, op); err != nil {
		return Instance{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.view().instances[id]
	if !ok {
		return Instance{}, newErr(op, ErrCodeInvalidInstance, "the instance id %q does not exist", id)
	}
	return copyInstance(inst), nil
}

// DescribeInstances returns all instances, sorted by id. Terminated
// instances remain visible (as on EC2, for a while).
func (c *Cloud) DescribeInstances(ctx context.Context) ([]Instance, error) {
	const op = "DescribeInstances"
	if err := c.apiCall(ctx, op); err != nil {
		return nil, err
	}
	c.mu.Lock()
	instances := c.view().instances
	out := make([]Instance, 0, len(instances))
	for _, inst := range instances {
		out = append(out, copyInstance(inst))
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// TerminateInstance begins terminating an instance. Used both by the
// upgrade orchestrator (replace an old-version instance) and by the
// random-termination interference injector.
func (c *Cloud) TerminateInstance(ctx context.Context, id string) error {
	const op = "TerminateInstances"
	if err := c.apiCall(ctx, op); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	inst, ok := c.instances[id]
	if !ok {
		return newErr(op, ErrCodeInvalidInstance, "the instance id %q does not exist", id)
	}
	if inst.State == StateTerminating || inst.State == StateTerminated {
		return nil // idempotent, like EC2
	}
	c.auditRecord(op, id, "operator")
	c.beginTerminate(inst, "user request")
	return nil
}

// beginTerminate transitions an instance to terminating, deregisters it
// from any ELB and records an ASG activity. Caller must hold mu.
func (c *Cloud) beginTerminate(inst *Instance, cause string) {
	inst.State = StateTerminating
	inst.TerminateAt = c.now().Add(c.profile.TerminateTime.Sample(c.rng))
	for _, elb := range c.elbs {
		removeString(&elb.Instances, inst.ID)
	}
	if asg, ok := c.asgs[inst.ASGName]; ok {
		c.addActivity(asg, ActivityInProgress,
			fmt.Sprintf("Terminating EC2 instance: %s", inst.ID), cause, "")
	}
	c.publish(fmt.Sprintf("instance %s terminating (%s)", inst.ID, cause),
		map[string]string{"instanceid": inst.ID})
}

// removeString deletes the first occurrence of s from the slice.
func removeString(list *[]string, s string) {
	for i, v := range *list {
		if v == s {
			*list = append((*list)[:i], (*list)[i+1:]...)
			return
		}
	}
}
