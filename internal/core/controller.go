package core

import (
	"fmt"
	"time"

	"netdebug/internal/control"
	"netdebug/internal/dataplane"
	"netdebug/internal/target"
)

// Controller is the host-side software tool. It speaks to the in-device
// agent over the dedicated control interface: installing entries,
// configuring test packet generation, and collecting test results.
type Controller struct {
	cli *control.Client
}

// NewController wraps an established control channel.
func NewController(cli *control.Client) *Controller {
	return &Controller{cli: cli}
}

// Connect attaches a controller to an in-process agent.
func Connect(agent *Agent) *Controller {
	return NewController(control.Pipe(agent))
}

// Close shuts the channel down.
func (c *Controller) Close() error { return c.cli.Close() }

// SetCallTimeout bounds every control-channel call; see
// control.Client.SetCallTimeout.
func (c *Controller) SetCallTimeout(d time.Duration) { c.cli.SetCallTimeout(d) }

// SetRetryPolicy enables bounded retry of transient agent errors; see
// control.Client.SetRetryPolicy.
func (c *Controller) SetRetryPolicy(p control.RetryPolicy) { c.cli.SetRetryPolicy(p) }

// Hello fetches device identity.
func (c *Controller) Hello() (*control.HelloInfo, error) { return c.cli.Hello() }

// InstallEntry installs one table entry on the device.
func (c *Controller) InstallEntry(e dataplane.Entry) error { return c.cli.InstallEntry(e) }

// InstallEntries installs entries, stopping at the first error.
func (c *Controller) InstallEntries(entries []dataplane.Entry) error {
	for i, e := range entries {
		if err := c.InstallEntry(e); err != nil {
			return fmt.Errorf("entry %d (%s): %w", i, e.Table, err)
		}
	}
	return nil
}

// DeleteEntry removes one table entry from the device by match identity.
func (c *Controller) DeleteEntry(e dataplane.Entry) error { return c.cli.DeleteEntry(e) }

// ClearTable empties a device table.
func (c *Controller) ClearTable(name string) error { return c.cli.ClearTable(name) }

// Status reads the device's internal status registers — the status
// monitoring use case.
func (c *Controller) Status() (map[string]uint64, error) { return c.cli.ReadStatus() }

// Resources reads the target's hardware resource report — the resources
// quantification use case.
func (c *Controller) Resources() (*target.ResourceReport, error) {
	p, err := c.cli.ReadResources()
	if err != nil {
		return nil, err
	}
	r, err := payload[target.ResourceReport](control.ReqReadResources, p)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// RunTest ships the spec to the device, runs it, and collects the report.
func (c *Controller) RunTest(spec *TestSpec) (*Report, error) {
	if spec == nil {
		return nil, fmt.Errorf("core: nil test spec")
	}
	if err := c.cli.ConfigureGen(spec); err != nil {
		return nil, fmt.Errorf("configuring test %q: %w", spec.Name, err)
	}
	if err := c.cli.RunTest(); err != nil {
		return nil, fmt.Errorf("running test %q: %w", spec.Name, err)
	}
	p, err := c.cli.FetchReport()
	if err != nil {
		return nil, fmt.Errorf("fetching report for %q: %w", spec.Name, err)
	}
	return payload[*Report](control.ReqFetchReport, p)
}
