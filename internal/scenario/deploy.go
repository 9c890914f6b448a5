package scenario

import (
	"fmt"
	"math"
	"time"

	"crystalball/internal/controller"
	"crystalball/internal/mc"
	"crystalball/internal/props"
	"crystalball/internal/runtime"
	"crystalball/internal/sim"
	"crystalball/internal/simnet"
	"crystalball/internal/stats"
)

// Control selects what supervises the deployed nodes.
type Control int

// Deployment control modes.
const (
	// Bare deploys the service with no CrystalBall controllers.
	Bare Control = iota
	// Debug attaches controllers in deep-online-debugging mode.
	Debug
	// Steering attaches controllers in execution-steering mode.
	Steering
)

// LANPath is the uniform 20 ms / 100 Mbps path model the staged scenarios
// and CLIs deploy on by default.
func LANPath() simnet.UniformPath {
	return simnet.UniformPath{Latency: 20 * time.Millisecond, BwBps: 1e8}
}

// DeployOptions assembles a live deployment behind one struct; the zero
// value deploys the scenario's Live defaults bare on a fresh seed-0 clock.
type DeployOptions struct {
	// Seed seeds the deployment's simulated clock.
	Seed int64
	// Path is the network path model (zero = LANPath).
	Path simnet.UniformPath
	// Service parameterises the service factory; zero fields resolve
	// against the scenario's Live tuning.
	Service Options
	// Control selects bare, debugging or steering supervision.
	Control Control
	// Controller, when set, is installed verbatim (its Check.Factory is
	// replaced by the deployment's); use ControllerConfig to derive a
	// baseline to tweak. All controller-shaping fields below are then
	// ignored.
	Controller *controller.Config
	// SnapshotInterval is the one interval at which nodes checkpoint and
	// controllers run model-checking rounds (0 = 10 s, the paper's); an
	// installed Controller carries its own.
	SnapshotInterval time.Duration
	// MCStates bounds each consequence-prediction round (0 = the
	// scenario's RoundBudget, then the controller default).
	MCStates int
	// Workers is the checker worker-pool size (0 = the scenario's
	// RoundBudget, then GOMAXPROCS).
	Workers int
	// Workload issues the scenario's initial application-call workload
	// (joins) as soon as the nodes exist; call StartWorkload for manual
	// control, e.g. after RecordGroundTruth so the forming overlay counts.
	Workload bool
	// Churn starts the built-in churn loop with this mean reset
	// interval (0 = none).
	Churn time.Duration
}

// Deployment is a running simulated CrystalBall deployment built by
// Scenario.Deploy.
type Deployment struct {
	Scenario *Scenario
	// Props is the property set supervising this deployment (what the
	// controllers check, or the scenario set when bare).
	Props props.Set
	Sim   *sim.Simulator
	Net   *simnet.Network
	Nodes []*runtime.Node
	Ctrls []*controller.Controller
	// JoinTimes samples, for scenarios that declare Joined, how long each
	// churned node took from its rejoin call to joined (StartChurn).
	JoinTimes stats.Sample
}

// Deploy assembles the full live stack for the scenario: simulated clock,
// simulated network with a path model, one runtime node per member, and —
// depending on o.Control — CrystalBall controllers, each with its node's
// snapshot manager.
func (sc *Scenario) Deploy(o DeployOptions) (*Deployment, error) {
	opts := sc.LiveOptions(o.Service)
	factory, err := sc.Factory(opts)
	if err != nil {
		return nil, err
	}
	s := sim.New(o.Seed)
	path := o.Path
	if path == (simnet.UniformPath{}) {
		path = LANPath()
	}

	var ctrlCfg *controller.Config
	switch {
	case o.Controller != nil:
		cfg := *o.Controller
		if cfg.Check.Props == nil {
			cfg.Check.Props = sc.PropsFor(o.Control == Debug)
		}
		ctrlCfg = &cfg
	case o.Control != Bare:
		cfg, err := sc.ControllerConfig(o)
		if err != nil {
			return nil, err
		}
		ctrlCfg = &cfg
	}

	d := &Deployment{
		Scenario: sc,
		Props:    sc.Props,
		Sim:      s,
		Net:      simnet.New(s, path),
	}
	// Every controller searches in the deployment's one workspace: their
	// rounds run one at a time on the simulator's goroutine, and a workspace
	// per controller would hold one engine's storage per node for no speed.
	var ws *mc.Workspace
	if ctrlCfg != nil {
		ctrlCfg.Check.Factory = factory
		d.Props = ctrlCfg.Check.Props
		ws = mc.NewWorkspace()
	}
	for _, id := range IDs(opts.Nodes) {
		node := runtime.NewNode(s, d.Net, id, factory)
		d.Nodes = append(d.Nodes, node)
		if ctrlCfg != nil {
			c := controller.New(s, node, *ctrlCfg, ws)
			c.Start()
			d.Ctrls = append(d.Ctrls, c)
		}
	}
	if o.Workload {
		d.StartWorkload()
	}
	if o.Churn > 0 {
		d.StartChurn(o.Churn)
	}
	return d, nil
}

// Deploy resolves service in the registry and deploys it; see
// Scenario.Deploy.
func Deploy(service string, o DeployOptions) (*Deployment, error) {
	sc, ok := Lookup(service)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (registered: %v)", service, Names())
	}
	return sc.Deploy(o)
}

// StartWorkload issues the scenario's initial application-call workload:
// every node receives a fresh Join call, staggered by the scenario's
// JoinStagger. A no-op for scenarios without a join call.
func (d *Deployment) StartWorkload() {
	if d.Scenario.Join == nil {
		return
	}
	for i, node := range d.Nodes {
		if d.Scenario.JoinStagger <= 0 {
			node.App(d.Scenario.Join())
			continue
		}
		d.Sim.After(time.Duration(i)*d.Scenario.JoinStagger, func() {
			node.App(d.Scenario.Join())
		})
	}
}

// StartChurn resets a random node (silently half the time) at exponential
// intervals with the given mean, reissuing the scenario's join call half a
// second after each reset. For a scenario that declares Joined it then
// polls the node every 100 ms, for up to 30 s, and samples the time to
// join into JoinTimes.
func (d *Deployment) StartChurn(mean time.Duration) {
	rng := d.Sim.RNG("churn")
	var tick func()
	tick = func() {
		node := d.Nodes[rng.Intn(len(d.Nodes))]
		node.Reset(rng.Intn(2) == 0)
		if d.Scenario.Join != nil {
			call := d.Scenario.Join()
			d.Sim.After(500*time.Millisecond, func() {
				node.App(call)
				if d.Scenario.Joined != nil {
					d.timeJoin(node, d.Sim.Now())
				}
			})
		}
		d.Sim.After(time.Duration(float64(mean)*expRand(rng.Float64())), tick)
	}
	d.Sim.After(time.Duration(float64(mean)*expRand(rng.Float64())), tick)
}

// timeJoin polls node, asked to join at asked, until it has joined or 30 s
// have passed.
func (d *Deployment) timeJoin(node *runtime.Node, asked sim.Time) {
	var poll func()
	poll = func() {
		switch waited := d.Sim.Now().Sub(asked); {
		case d.Scenario.Joined(node.Service()):
			d.JoinTimes.AddDuration(waited)
		case waited < 30*time.Second:
			d.Sim.After(100*time.Millisecond, poll)
		}
	}
	d.Sim.After(100*time.Millisecond, poll)
}

// expRand converts a uniform sample into a unit-mean exponential sample,
// capped at 5 to avoid pathological gaps in short experiments.
func expRand(u float64) float64 { return min(-math.Log(max(u, 1e-9)), 5) }

// View builds the ground-truth global view of the deployment, allocating a
// fresh view. Per-event harness loops use FillView with a reused view.
func (d *Deployment) View() *props.View {
	v := props.NewView()
	d.FillView(v)
	return v
}

// FillView resets v and loads every node's (service, timers) pair into it,
// reusing v's storage; for harnesses that evaluate ground-truth properties
// on every executed event.
func (d *Deployment) FillView(v *props.View) {
	v.Reset()
	for _, node := range d.Nodes {
		svc, timers := node.View()
		v.Add(node.ID, svc, timers)
	}
}

// TotalFindings returns all controller findings.
func (d *Deployment) TotalFindings() []controller.Finding {
	var out []controller.Finding
	for _, c := range d.Ctrls {
		out = append(out, c.Findings()...)
	}
	return out
}
