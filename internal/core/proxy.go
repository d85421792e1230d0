package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"newtop/internal/ids"
	"newtop/internal/obs"
	"newtop/internal/vclock"
)

// Proxy is the paper's "smart proxy" (§2.1): a binding wrapper that, when
// the request manager fails and the client/server group is disbanded,
// transparently rebinds to a surviving member of the server group and
// retries the call with its original call number — the retained replies at
// the servers guarantee the retry never re-executes.
type Proxy struct {
	svc *Service
	cfg BindConfig

	mu      sync.Mutex
	binding *Binding
	// members is the most recent server-group membership, used to pick a
	// new contact when the old one has failed.
	members []ids.ProcessID
	closed  bool
}

// maxRebinds bounds the rebind attempts of a single invocation.
const maxRebinds = 4

// NewProxy binds once and returns the self-rebinding proxy.
func (s *Service) NewProxy(ctx context.Context, cfg BindConfig) (*Proxy, error) {
	p := &Proxy{svc: s, cfg: cfg}
	if err := p.rebind(ctx, ""); err != nil {
		return nil, err
	}
	return p, nil
}

// Binding returns the current underlying binding.
func (p *Proxy) Binding() *Binding {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.binding
}

// Close releases the current binding.
func (p *Proxy) Close() error {
	p.mu.Lock()
	b := p.binding
	p.closed = true
	p.binding = nil
	p.mu.Unlock()
	if b != nil {
		return b.Close()
	}
	return nil
}

// Call performs one invocation (Invoker surface), rebinding and retrying
// with the same call number whenever the binding breaks under it — the
// retained replies at the servers make the retry idempotent.
func (p *Proxy) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	o, owned := p.resolve(opts)
	if owned {
		defer p.svc.release(o.call.Number)
	}
	return p.call(ctx, method, args, o)
}

// call is Call with the options resolved.
func (p *Proxy) call(ctx context.Context, method string, args []byte, o callOpts) (replies []Reply, err error) {
	err = p.withBinding(ctx, func(b *Binding) (err error) {
		replies, err = b.call(ctx, method, args, o)
		return err
	})
	return replies, err
}

// InvokeAsync launches one invocation and returns its future; the
// rebind-and-retry loop runs in the background. The proxy has no window
// of its own — each attempt occupies a slot of the current underlying
// binding's window.
//
//lint:ok unlinked the Invoker assertion in invoker.go needs it until the proxy folds into the binding (ROADMAP item 18)
func (p *Proxy) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	o, owned := p.resolve(opts)
	p.svc.metrics.asyncCalls.Inc()
	ctx, cancel := context.WithCancel(ctx)
	c := newCallFuture(o.call, o.mode)
	c.stop = func() bool { cancel(); return true } // Cancel ends the loop
	go func() {
		replies, err := p.call(ctx, method, args, o)
		if owned {
			p.svc.release(o.call.Number)
		}
		if errors.Is(err, context.Canceled) {
			p.svc.metrics.asyncCancelled.Inc()
		}
		c.finish(replies, err)
	}()
	return c, nil
}

// resolve fills the options a retry loop must keep stable: the call
// identifier (idempotent retries) and the trace (every attempt of one
// logical call lands in one trace). A number it allocates (owned) stays held
// across the whole rebind-and-retry loop, until its caller releases it.
func (p *Proxy) resolve(opts []CallOption) (o callOpts, owned bool) {
	o = resolveCallOpts(opts)
	if !o.hasCall {
		o.call, _ = p.svc.newCall()
		o.hasCall, owned = true, true
	}
	if o.trace == 0 {
		o.trace = obs.NewTraceID()
	}
	return o, owned
}

// Read serves one read-only invocation through the current binding
// (Invoker surface), rebinding and retrying when the binding breaks.
// Reads carry no call number — they never execute as ordered requests, so
// there is nothing to retain — but the session token survives the rebind:
// the replacement binding inherits the old one's stamp, so read-your-writes
// holds across a request manager failure.
//
//lint:ok unlinked the Invoker assertion in invoker.go needs it until the proxy folds into the binding (ROADMAP item 18)
func (p *Proxy) Read(ctx context.Context, method string, args []byte, opts ...CallOption) (payload []byte, err error) {
	o := resolveCallOpts(opts)
	err = p.withBinding(ctx, func(b *Binding) (err error) {
		payload, err = b.read(ctx, method, args, o)
		return err
	})
	return payload, err
}

// withBinding runs one invocation, fn, on the current binding, rebinding
// and running it again whenever the binding is, or breaks, broken.
func (p *Proxy) withBinding(ctx context.Context, fn func(*Binding) error) error {
	var lastErr error
	for attempt := 0; attempt <= maxRebinds; attempt++ {
		p.mu.Lock()
		closed, b := p.closed, p.binding
		p.mu.Unlock()
		if closed {
			return ErrClosed
		}
		if b == nil || b.Broken() {
			var avoid ids.ProcessID
			if b != nil {
				avoid = b.RequestManager()
			}
			if err := p.rebind(ctx, avoid); err != nil {
				lastErr = err
				if ctx.Err() != nil {
					return ctx.Err()
				}
			}
			continue
		}
		if lastErr = fn(b); !errors.Is(lastErr, ErrBindingBroken) {
			return lastErr
		}
	}
	return fmt.Errorf("core: proxy exhausted rebinds: %w", lastErr)
}

// SessionStamp returns the current binding's session token (zero when the
// proxy is between bindings).
//
//lint:ok unlinked the Invoker assertion in invoker.go needs it until the proxy folds into the binding (ROADMAP item 18)
func (p *Proxy) SessionStamp() vclock.Stamp {
	p.mu.Lock()
	b := p.binding
	p.mu.Unlock()
	if b == nil {
		return vclock.Stamp{}
	}
	return b.SessionStamp()
}

// rebind forms a fresh binding, avoiding the failed request manager.
func (p *Proxy) rebind(ctx context.Context, avoid ids.ProcessID) error {
	p.mu.Lock()
	old := p.binding
	p.binding = nil
	candidates := p.members // replaced whole on rebind, never written to
	p.mu.Unlock()
	var session vclock.Stamp
	if old != nil {
		// Only re-binds count — the initial NewProxy bind is not a failure.
		p.svc.metrics.rebinds.Inc()
		session = old.SessionStamp()
		_ = old.Close()
	}

	// Contact order: configured contact first, then the last known
	// membership, skipping the member we believe failed.
	contacts := make([]ids.ProcessID, 0, len(candidates)+1)
	if !p.cfg.Contact.Nil() && p.cfg.Contact != avoid {
		contacts = append(contacts, p.cfg.Contact)
	}
	for _, m := range candidates {
		if m != avoid && !ids.ContainsProcess(contacts, m) {
			contacts = append(contacts, m)
		}
	}
	if len(contacts) == 0 {
		contacts = append(contacts, p.cfg.Contact)
	}

	var lastErr error
	for _, contact := range contacts {
		cfg := p.cfg
		cfg.Contact = contact
		if cfg.Restricted && avoid != "" {
			// The restricted request manager just failed: fall back to
			// an arbitrary surviving member until the group elects a new
			// leader, rather than re-binding to the corpse.
			cfg.Restricted = false
		}
		b, err := p.svc.Bind(ctx, cfg)
		if err != nil {
			lastErr = err
			continue
		}
		if cfg.Style == Open && b.RequestManager() == avoid {
			_ = b.Close()
			lastErr = fmt.Errorf("core: rebind landed on failed manager %s", avoid)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = b.Close()
			return ErrClosed
		}
		b.noteStamp(session) // read-your-writes survives the rebind
		p.binding = b
		p.members = b.KnownServers()
		p.mu.Unlock()
		return nil
	}
	return fmt.Errorf("core: rebind: %w", lastErr)
}
