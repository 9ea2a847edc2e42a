package core

import (
	"fmt"

	"netdebug/internal/control"
	"netdebug/internal/dataplane"
	"netdebug/internal/target"
)

// Controller is the host-side software tool. It speaks to the in-device
// agent over the dedicated control interface: installing entries,
// configuring test packet generation, and collecting test results. Table
// writes, timeouts and retry are the embedded client's.
type Controller struct {
	*control.Client
}

// NewController wraps an established control channel.
func NewController(cli *control.Client) *Controller {
	return &Controller{cli}
}

// Connect attaches a controller to an in-process agent.
func Connect(agent *Agent) *Controller {
	return NewController(control.Pipe(agent))
}

// InstallEntries installs entries in order, many to a control message,
// stopping at the first error.
func (c *Controller) InstallEntries(entries []dataplane.Entry) error {
	_, err := c.Write(control.ReqInstallEntry, entries)
	return err
}

// Status reads the device's internal status registers — the status
// monitoring use case.
func (c *Controller) Status() (map[string]uint64, error) { return c.ReadStatus() }

// Resources reads the target's hardware resource report — the resources
// quantification use case.
func (c *Controller) Resources() (*target.ResourceReport, error) {
	p, err := c.ReadResources()
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
	if err := c.ConfigureGen(spec); err != nil {
		return nil, fmt.Errorf("configuring test %q: %w", spec.Name, err)
	}
	if err := c.Client.RunTest(); err != nil {
		return nil, fmt.Errorf("running test %q: %w", spec.Name, err)
	}
	p, err := c.FetchReport()
	if err != nil {
		return nil, fmt.Errorf("fetching report for %q: %w", spec.Name, err)
	}
	return payload[*Report](control.ReqFetchReport, p)
}
