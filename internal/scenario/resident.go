package scenario

import (
	"bytes"
	"time"

	"netdebug/internal/device"
	"netdebug/internal/faultplan"
	"netdebug/internal/session"
	"netdebug/internal/target"
	"netdebug/internal/tester"
)

// residentScenarios covers the resident-service use case: long-lived
// concurrent validation sessions over pooled devices, control-plane
// churn under traffic, faults injected on a schedule, and a recorded
// event stream that replays deterministically. NetDebug's session layer
// owns all four capabilities; verification is static and sees none of
// them; an external tester observes fault windows as loss but has no
// control plane, no session state, and no event stream.
func residentScenarios() []Scenario {
	return []Scenario{
		{
			Name: "recorded fault/churn sessions replay byte-identically", UseCase: Resident,
			NetDebug: func() Outcome {
				var buf bytes.Buffer
				m, err := session.NewManager(residentHostConfig(), 2, session.NewRecorder(&buf))
				if err != nil {
					return missed("manager: %v", err)
				}
				defer m.Close()
				if _, err := m.RunAll(residentBatch()); err != nil {
					return missed("session batch: %v", err)
				}
				if err := session.ReplayCheck(buf.Bytes()); err != nil {
					return missed("replay: %v", err)
				}
				return detected("recorded stream re-executed on fresh systems byte-identically")
			},
			Formal:   cannot("an event stream is a runtime artifact; static analysis has nothing to replay"),
			External: cannot("the tester sees frames on ports, not sessions; there is no stream to record or replay"),
		},
		{
			Name: "table churn under live validation traffic", UseCase: Resident,
			NetDebug: func() Outcome {
				m, err := session.NewManager(residentHostConfig(), 1, nil)
				if err != nil {
					return missed("manager: %v", err)
				}
				defer m.Close()
				res, err := m.Run(session.SessionSpec{
					Name:     "churn",
					Spec:     *residentStream(30).spec(),
					Rounds:   3,
					Churn:    &session.ChurnSpec{Table: "ipv4_lpm", Installs: 5, Deletes: 2},
					SLOBound: time.Millisecond,
				})
				if err != nil {
					return missed("session: %v", err)
				}
				if !res.Pass {
					return missed("validation failed under churn")
				}
				live := 0
				for _, rec := range res.Records {
					if rec.Type == "churn" {
						live = rec.Churn.Live
					}
				}
				if live == 0 {
					return missed("churn driver installed nothing")
				}
				return detected("every round validated while installing/deleting entries (%d live at end)", live)
			},
			Formal:   cannot("installed entries are runtime state; churn is invisible to program verification"),
			External: cannot("the tester has no control-plane access to churn tables"),
		},
		{
			Name: "scheduled fault window: degradation and recovery", UseCase: Resident,
			NetDebug: func() Outcome {
				m, err := session.NewManager(residentHostConfig(), 1, nil)
				if err != nil {
					return missed("manager: %v", err)
				}
				defer m.Close()
				res, err := m.Run(session.SessionSpec{
					Name:   "fault-window",
					Spec:   *residentStream(10).spec(),
					Rounds: 3,
					Plan: faultplan.Plan{Events: []faultplan.Event{
						{At: 0, Kind: faultplan.PortDown, Port: 0},
						{At: 15 * time.Microsecond, Kind: faultplan.ClearFaults},
					}},
					Probe: &session.ProbeSpec{Port: 0, Frame: goodFrame(), Count: 5},
				})
				if err != nil {
					return missed("session: %v", err)
				}
				var degraded, recovered, validatedThrough bool
				for _, rec := range res.Records {
					switch rec.Type {
					case "probe":
						if rec.Probe.RxLost == 5 {
							degraded = true
						} else if degraded && rec.Probe.RxLost == 0 {
							recovered = true
						}
					case "report":
						validatedThrough = rec.Report != nil && rec.Report.Pass
					}
				}
				if degraded && recovered && validatedThrough {
					return detected("probes lost in the fault window, restored after the scheduled clear; internal validation ran throughout")
				}
				return missed("window not observed: degraded=%v recovered=%v validated=%v", degraded, recovered, validatedThrough)
			},
			Formal: cannot("scheduled hardware faults are invisible to program verification"),
			External: func() Outcome {
				// The tester does see the fault window — as loss — but
				// cannot keep validating through it: a downed ingress
				// blocks its only injection path.
				dev := router.on(target.NewReference())
				dev.InjectFault(device.Fault{Kind: device.FaultPortDown, Port: 0})
				lost := stream{frame: goodFrame(), count: 10, ratePPS: 1e6, wantDrop: true}
				return lost.transmitted(dev, func(rep *tester.Report) Outcome {
					if rep.Pass && rep.Received == 0 {
						return detected("fault window visible as 100%% loss, though validation halts with it")
					}
					return missed("loss not observed: %+v", rep)
				})
			},
		},
	}
}

// residentStream is the traffic every resident session validates:
// goodFrame()-shaped packets that egress port 1 via the baseline 10/8
// route.
func residentStream(count int) stream {
	return stream{frame: goodFrame(), count: count, ratePPS: 1e6}
}

// residentBatch is a small mixed batch: churn sessions interleaved with
// fault-plan sessions, enough to exercise canonical stream ordering.
func residentBatch() []session.SessionSpec {
	churn := session.SessionSpec{
		Name:     "churny",
		Spec:     *residentStream(20).spec(),
		Rounds:   2,
		Churn:    &session.ChurnSpec{Table: "ipv4_lpm", Installs: 4, Deletes: 2},
		SLOBound: time.Millisecond,
	}
	faulty := session.SessionSpec{
		Name:   "faulty",
		Spec:   *residentStream(20).spec(),
		Rounds: 2,
		Plan: faultplan.Plan{Events: []faultplan.Event{
			{At: 0, Kind: faultplan.InstallFlap, Count: 1},
			{At: 10 * time.Microsecond, Kind: faultplan.MapFull, Table: "ipv4_lpm"},
		}},
		Churn: &session.ChurnSpec{Table: "ipv4_lpm", Installs: 2, Deletes: 1},
		Probe: &session.ProbeSpec{Port: 0, Frame: goodFrame(), Count: 4},
	}
	return []session.SessionSpec{churn, faulty, churn, faulty}
}

// residentHostConfig pools reference-target routers with the 10/8 route
// installed and a bounded-retry control channel.
func residentHostConfig() session.HostConfig {
	return session.HostConfig{
		Source:      router.src,
		Target:      "reference",
		Baseline:    router.entries,
		CallTimeout: time.Second,
		Retry:       session.RetrySpec{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: 4 * time.Microsecond},
	}
}
