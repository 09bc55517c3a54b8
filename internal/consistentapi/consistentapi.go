// Package consistentapi implements the paper's "consistent AWS API layer"
// (§IV): a wrapper over the simulated cloud API that masks eventual
// consistency with an exponential retry mechanism — if the observed status
// of a resource differs from the caller's expectation, the call is retried
// automatically — and that bounds every evaluation with an API timeout
// (calibrated at the 95th percentile in the paper); evaluations whose
// calls time out are reported as failed-to-evaluate rather than failed.
package consistentapi

import (
	"context"
	"errors"
	"strconv"
	"time"

	"poddiagnosis/internal/clock"
	"poddiagnosis/internal/simaws"
)

// ErrAPITimeout is returned when the overall call budget is exhausted
// before the expectation was met and before a definitive answer arrived.
var ErrAPITimeout = errors.New("consistentapi: API timeout")

// ErrExpectationNotMet is the cause a call that gives up reports when its
// reads succeeded but none satisfied the caller's expectation.
var ErrExpectationNotMet = errors.New("expectation not met")

// giveUpError is the error of a call that gave up: it matches
// ErrAPITimeout under errors.Is and unwraps to the last cause. Exactly one
// of budget and attempts is set, naming what ran out.
type giveUpError struct {
	cause    error
	budget   time.Duration // the call timeout, when the time budget ran out
	attempts int           // the attempt limit, when the attempts ran out
}

func (e *giveUpError) Error() string {
	var limit string
	if e.attempts > 0 {
		limit = strconv.Itoa(e.attempts) + " attempts"
	} else {
		limit = e.budget.String()
	}
	msg := ErrAPITimeout.Error() + " after " + limit
	if e.cause != nil {
		msg += ": " + e.cause.Error()
	}
	return msg
}

// Is reports that a give-up is an ErrAPITimeout.
func (e *giveUpError) Is(target error) bool { return target == ErrAPITimeout }

// Unwrap returns the last cause.
func (e *giveUpError) Unwrap() error { return e.cause }

// Config tunes the retry layer.
type Config struct {
	// MaxAttempts bounds the number of tries per call. Zero means 5.
	MaxAttempts int
	// InitialBackoff is the first retry delay (doubled each retry).
	// Zero means 200ms.
	InitialBackoff time.Duration
	// MaxBackoff caps the delay. Zero means 5s.
	MaxBackoff time.Duration
	// CallTimeout bounds one logical call including retries (the paper's
	// p95-based timeout). Zero means 15s.
	CallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.InitialBackoff <= 0 {
		c.InitialBackoff = 200 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 15 * time.Second
	}
	return c
}

// Client wraps a simulated cloud with consistency-masking retries.
type Client struct {
	cloud *simaws.Cloud
	clk   clock.Clock
	cfg   Config
}

// New returns a Client over the cloud.
func New(cloud *simaws.Cloud, cfg Config) *Client {
	return &Client{cloud: cloud, clk: cloud.Clock(), cfg: cfg.withDefaults()}
}

// Cloud exposes the underlying raw API for callers that explicitly want
// single-shot semantics.
func (c *Client) Cloud() *simaws.Cloud { return c.cloud }

// Clock returns the client's time source.
func (c *Client) Clock() clock.Clock { return c.clk }

// eventually retries fetch until pred accepts the value, a non-retryable
// error other than staleness occurs, or the call budget is exhausted.
// It returns the last observed value; ok reports whether pred was
// satisfied. Terminal resource errors (e.g. NotFound) are returned
// immediately since retrying cannot change them — except that a NotFound
// may itself be stale, so one retry is allowed for not-found conditions.
// The doubling back-off is slept only between attempts: a call that gives
// up returns as soon as its last read is in.
func eventually[T any](ctx context.Context, c *Client, fetch func(context.Context) (T, error), pred func(T) bool) (T, bool, error) {
	var last T
	// Every read through this layer belongs to POD's own monitoring plane;
	// the tag lets chaos fault injectors storm these calls without touching
	// the operation under diagnosis.
	ctx = simaws.WithPlane(ctx, simaws.PlaneMonitoring)
	cfg := c.cfg
	deadline := c.clk.Now().Add(cfg.CallTimeout)
	backoff := cfg.InitialBackoff
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if c.clk.Now().After(deadline) {
			return last, false, &giveUpError{cause: lastErr, budget: cfg.CallTimeout}
		}
		v, err := fetch(ctx)
		switch {
		case err == nil:
			last = v
			if pred == nil || pred(v) {
				return v, true, nil
			}
			lastErr = ErrExpectationNotMet
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return last, false, err
		case simaws.IsRetryable(err):
			lastErr = err
		case simaws.IsNotFound(err):
			// A not-found can be stale; retry a limited number of times
			// before trusting it.
			lastErr = err
			if attempt >= 1 {
				return last, false, err
			}
		default:
			return last, false, err
		}
		// Sleep only between attempts: no read follows the last attempt,
		// nor a back-off that would end past the deadline.
		if attempt+1 == cfg.MaxAttempts {
			break
		}
		if c.clk.Now().Add(backoff).After(deadline) {
			return last, false, &giveUpError{cause: lastErr, budget: cfg.CallTimeout}
		}
		if err := c.clk.Sleep(ctx, backoff); err != nil {
			return last, false, err
		}
		backoff *= 2
		if backoff > cfg.MaxBackoff {
			backoff = cfg.MaxBackoff
		}
	}
	if lastErr == nil {
		lastErr = ErrExpectationNotMet
	}
	return last, false, &giveUpError{cause: lastErr, attempts: cfg.MaxAttempts}
}

// Eventually retries fetch until pred accepts the value, a terminal error
// occurs, or the call budget is exhausted. It is the generic entry point
// for composite reads (e.g. resolving an ASG's launch configuration) that
// must be retried as a unit when the combined expectation is unmet.
func Eventually[T any](ctx context.Context, c *Client, fetch func(context.Context) (T, error), pred func(T) bool) (T, bool, error) {
	return eventually(ctx, c, fetch, pred)
}

// DescribeASG fetches the group, retrying while pred is unmet. A nil pred
// returns the first successful read.
func (c *Client) DescribeASG(ctx context.Context, name string, pred func(simaws.ASG) bool) (simaws.ASG, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.ASG, error) {
		return c.cloud.DescribeAutoScalingGroup(ctx, name)
	}, pred)
}

// DescribeLaunchConfig fetches a launch configuration with retries.
func (c *Client) DescribeLaunchConfig(ctx context.Context, name string, pred func(simaws.LaunchConfig) bool) (simaws.LaunchConfig, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.LaunchConfig, error) {
		return c.cloud.DescribeLaunchConfiguration(ctx, name)
	}, pred)
}

// DescribeImage fetches an AMI with retries.
func (c *Client) DescribeImage(ctx context.Context, id string, pred func(simaws.Image) bool) (simaws.Image, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.Image, error) {
		return c.cloud.DescribeImage(ctx, id)
	}, pred)
}

// DescribeKeyPair fetches a key pair with retries.
func (c *Client) DescribeKeyPair(ctx context.Context, name string) (simaws.KeyPair, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.KeyPair, error) {
		return c.cloud.DescribeKeyPair(ctx, name)
	}, nil)
}

// DescribeSecurityGroup fetches a security group with retries.
func (c *Client) DescribeSecurityGroup(ctx context.Context, name string) (simaws.SecurityGroup, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.SecurityGroup, error) {
		return c.cloud.DescribeSecurityGroup(ctx, name)
	}, nil)
}

// DescribeInstances lists instances, retrying while pred is unmet.
func (c *Client) DescribeInstances(ctx context.Context, pred func([]simaws.Instance) bool) ([]simaws.Instance, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) ([]simaws.Instance, error) {
		return c.cloud.DescribeInstances(ctx)
	}, pred)
}

// DescribeInstance fetches one instance with retries.
func (c *Client) DescribeInstance(ctx context.Context, id string, pred func(simaws.Instance) bool) (simaws.Instance, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.Instance, error) {
		return c.cloud.DescribeInstance(ctx, id)
	}, pred)
}

// DescribeELB fetches a load balancer with retries.
func (c *Client) DescribeELB(ctx context.Context, name string, pred func(simaws.LoadBalancer) bool) (simaws.LoadBalancer, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) (simaws.LoadBalancer, error) {
		return c.cloud.DescribeLoadBalancer(ctx, name)
	}, pred)
}

// DescribeScalingActivities fetches the scaling history with retries.
func (c *Client) DescribeScalingActivities(ctx context.Context, name string, pred func([]simaws.Activity) bool) ([]simaws.Activity, bool, error) {
	return eventually(ctx, c, func(ctx context.Context) ([]simaws.Activity, error) {
		return c.cloud.DescribeScalingActivities(ctx, name)
	}, pred)
}
