package gcs

import (
	"newtop/internal/obs"
	"newtop/internal/transport"
)

// NewNodeWorkers is NewNodeObs with a dispatch pool of the given size (0
// selects the default), for the tests that pin per-group delivery order
// across concurrent workers on any host.
func NewNodeWorkers(ep transport.Endpoint, o *obs.Obs, workers int) *Node {
	if workers <= 0 {
		workers = dispatchWorkers()
	}
	return newNode(ep, o, workers)
}
