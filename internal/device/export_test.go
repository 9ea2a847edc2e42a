package device

// Test-only access for the external test package (package device_test),
// whose tests drive the device through packages that import it.
var (
	NewRouterDevice = newRouterDevice
	TestFrame       = testFrame
)

// TapCount is the number of tap callbacks registered, over every tap
// point.
func (d *Device) TapCount() int {
	n := 0
	for _, fns := range d.taps {
		n += len(fns)
	}
	return n
}
