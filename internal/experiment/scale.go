package experiment

import (
	"fmt"

	"elba/internal/cim"
	"elba/internal/cluster"
	"elba/internal/deploy"
	"elba/internal/expr"
	"elba/internal/mulini"
	"elba/internal/sim"
)

// Autoscaling on a live DES trial. Scale-out allocates nodes from a
// private per-trial spare pool — a cluster materialized from the tier's
// own deployed hardware description, so an added station is an exact
// clone of the tier's first node (cores, speed, spindle, link,
// demand-gated resource queues, built by newStation) — and joins it to
// the tier's balancer, which rebalances deterministically. Scale-in
// retires stations LIFO; a station that came from the spare pool hands
// its node back, so an oscillating policy re-allocates the same hardware
// in the same order every run. The pool is sized by the policies' max
// bounds at trial start, which is why validation requires a max on every
// scale-out policy.

// buildSpares builds the per-trial spare pools for every tier a
// scale-out policy can grow. Pools derive purely from the trial's
// deployed placement and the spec's policies, so the whole actuation
// path is a deterministic function of the trial coordinates.
func (g *desEngine) buildSpares(d *mulini.Deployment, p *deploy.Placement) error {
	g.nodeOf = map[*sim.Station]*cluster.Node{}
	for ti, name := range tierNames {
		head := 0
		for _, pol := range g.e.Policies {
			if pol.Tier != name || pol.In {
				continue
			}
			if h := pol.Max - g.Replicas(ti); h > head {
				head = h
			}
		}
		if head <= 0 {
			continue
		}
		roles := d.Roles(name)
		if len(roles) == 0 {
			return fmt.Errorf("experiment: policy scales tier %s, absent from topology %s", name, d.Topology)
		}
		node, ok := p.Node(roles[0])
		if !ok {
			return fmt.Errorf("experiment: role %s has no allocated node", roles[0])
		}
		pool := node.Pool()
		pool.Name = "scale-" + name
		pool.NodeType = "scale-" + name
		pool.NodeCount = head
		cl, err := cluster.New(cim.Platform{Name: "autoscale", Pools: []cim.NodePool{pool}})
		if err != nil {
			return err
		}
		g.spares[ti] = cl
	}
	return nil
}

// Replicas reports a tier's active station count.
func (g *desEngine) Replicas(tier int) int {
	switch tier {
	case expr.TierWeb:
		return g.nt.Web.Size()
	case expr.TierApp:
		return g.nt.App.Size()
	default:
		return g.nt.DB.Size()
	}
}

// Scale moves a tier's active count toward target one station at a time
// and returns the count reached.
func (g *desEngine) Scale(tier, target int) int {
	for g.Replicas(tier) < target {
		if !g.addOne(tier) {
			break
		}
	}
	for g.Replicas(tier) > target {
		if !g.removeOne(tier) {
			break
		}
	}
	return g.Replicas(tier)
}

// addOne allocates a spare node and attaches a station built exactly the
// way the tier's original stations were.
func (g *desEngine) addOne(tier int) bool {
	cl := g.spares[tier]
	if cl == nil {
		return false
	}
	name := tierNames[tier]
	role := fmt.Sprintf("%s-scale-%d", name, g.serial[tier]+1)
	node, err := cl.Allocate("", role)
	if err != nil {
		return false
	}
	g.serial[tier]++
	st := newStation(g.k, role, node, g.e.Demands[name])
	g.nodeOf[st] = node
	switch tier {
	case expr.TierWeb:
		g.nt.Web.AddStation(st)
	case expr.TierApp:
		g.nt.App.AddStation(st)
	default:
		g.nt.DB.AddReplica(st)
	}
	return true
}

// removeOne retires the tier's most recently added station. The retired
// station drains its in-flight work; if it was backed by a spare-pool
// node the node is released for the next scale-out to re-allocate.
// Originally deployed stations have no node to return — their hardware
// belongs to the runner's cluster for the whole trial.
func (g *desEngine) removeOne(tier int) bool {
	var st *sim.Station
	switch tier {
	case expr.TierWeb:
		st = g.nt.Web.RemoveStation()
	case expr.TierApp:
		st = g.nt.App.RemoveStation()
	default:
		st = g.nt.DB.RemoveReplica()
	}
	if st == nil {
		return false
	}
	if node, ok := g.nodeOf[st]; ok {
		g.spares[tier].Release(node)
		delete(g.nodeOf, st)
	}
	return true
}
