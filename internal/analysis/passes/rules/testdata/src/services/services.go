// Package services stands in for crystalball/internal/services: the
// one-executor row allows a service to call handlers, its own or an embedded
// one's.
package services

import "crystalball/internal/sm"

// wrapper overrides one handler of the service it embeds.
type wrapper struct{ sm.Service }

func (w wrapper) HandleMessage(ctx sm.Context, from sm.NodeID, msg sm.Message) {
	w.Service.HandleMessage(ctx, from, msg)
	w.Service.HandleTimer(ctx, "retry")
}

func restore(st sm.StableStore, data []byte) { st.RestoreStable(data) }
