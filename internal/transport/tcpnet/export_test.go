package tcpnet

import "newtop/internal/ids"

// AdvertiseAddr returns the address the endpoint hands to peers in its
// handshake, "" when it has none worth advertising.
func (e *Endpoint) AdvertiseAddr() string { return e.adv }

// PeerAddr returns the known address of a peer (configured or learned
// from its handshake).
func (e *Endpoint) PeerAddr(id ids.ProcessID) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	addr, ok := e.peers[id]
	return addr, ok
}
