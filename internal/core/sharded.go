package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"newtop/internal/ids"
	"newtop/internal/shard"
	"newtop/internal/vclock"
)

// ErrNoShard is returned when an invocation's key resolves to a shard the
// binding holds no live attachment for.
var ErrNoShard = errors.New("core: no shard owns this key")

// ShardSpec names one shard of a sharded fabric: its name on the
// consistent-hash ring, the server group implementing it, and a bootstrap
// contact for that group.
type ShardSpec struct {
	// Name is the shard's name on the ring (placement identity — stable
	// across group re-creation).
	Name string
	// Group is the server group serving this shard's keys.
	Group ids.GroupID
	// Contact is any member of that group.
	Contact ids.ProcessID
}

// ShardConfig configures a sharded binding: N independent server groups
// composed behind one Invoker through a consistent-hash ring.
type ShardConfig struct {
	// Shards lists the fabric's shards. Names must be unique.
	Shards []ShardSpec
	// RingSeed seeds key placement. Every router of the same fabric must
	// use the same seed (and VNodes) or they will disagree on ownership.
	RingSeed uint64
	// VNodes is the virtual-node count per shard (0 = shard.DefaultVNodes).
	VNodes int
	// KeyOf extracts the routing key of an invocation. The default takes
	// args up to the first '=' (so the Store's "put k=v" / "get k"
	// argument conventions route on the key).
	KeyOf func(method string, args []byte) []byte
	// Bind is the per-shard binding template; ServerGroup and Contact are
	// filled from each ShardSpec.
	Bind BindConfig
}

// ShardedBinding is the router of the sharded object-group fabric: it
// implements the Invoker surface over N independent totally-ordered
// groups, resolving key→shard→group per invocation through a
// consistent-hash ring and delegating to the owning shard's Binding.
//
// Each shard's binding keeps its own session stamp, so read-your-writes
// holds per shard — the only scope in which it is meaningful, since
// stamps from different groups are incomparable. Calls to different
// shards are mutually unordered: the fabric guarantees total order per
// shard, nothing across shards.
type ShardedBinding struct {
	svc *Service
	cfg ShardConfig

	mu       sync.Mutex
	ring     *shard.Ring
	bindings map[string]*Binding // shard name → live attachment
	specs    map[string]ShardSpec
	closed   bool
}

// defaultKeyOf routes on args up to the first '=' — the Store's argument
// convention ("put k=v", "get k") — falling back to the whole args.
func defaultKeyOf(method string, args []byte) []byte {
	if i := bytes.IndexByte(args, '='); i >= 0 {
		return args[:i]
	}
	return args
}

// BindSharded forms one binding per shard (in parallel) and returns the
// router. Partial failure unwinds every binding already formed.
func (s *Service) BindSharded(ctx context.Context, cfg ShardConfig) (*ShardedBinding, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("core: sharded bind: no shards")
	}
	if cfg.KeyOf == nil {
		cfg.KeyOf = defaultKeyOf
	}
	names := make([]string, 0, len(cfg.Shards))
	specs := make(map[string]ShardSpec, len(cfg.Shards))
	for _, sp := range cfg.Shards {
		if _, dup := specs[sp.Name]; dup {
			return nil, fmt.Errorf("core: sharded bind: duplicate shard %q", sp.Name)
		}
		specs[sp.Name] = sp
		names = append(names, sp.Name)
	}

	sb := &ShardedBinding{
		svc:      s,
		cfg:      cfg,
		ring:     shard.NewRing(cfg.RingSeed, cfg.VNodes, names...),
		bindings: make(map[string]*Binding, len(cfg.Shards)),
		specs:    specs,
	}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		firstEr error
	)
	for _, sp := range cfg.Shards {
		sp := sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := s.Bind(ctx, sb.shardBindConfig(sp))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstEr == nil {
					firstEr = fmt.Errorf("core: sharded bind %q: %w", sp.Name, err)
				}
				return
			}
			sb.bindings[sp.Name] = b
		}()
	}
	wg.Wait()
	if firstEr != nil {
		for _, b := range sb.bindings {
			_ = b.Close()
		}
		return nil, firstEr
	}
	return sb, nil
}

// shardBindConfig instantiates the binding template for one shard.
func (sb *ShardedBinding) shardBindConfig(sp ShardSpec) BindConfig {
	bc := sb.cfg.Bind
	bc.ServerGroup = sp.Group
	bc.Contact = sp.Contact
	return bc
}

// Ring returns the router's current placement ring.
func (sb *ShardedBinding) Ring() *shard.Ring {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.ring
}

// Shards returns the shard names currently routed to, sorted.
func (sb *ShardedBinding) Shards() []string {
	return sb.Ring().Shards()
}

// route resolves one invocation's options and the owning shard's binding.
func (sb *ShardedBinding) route(method string, args []byte, opts []CallOption) (*Binding, callOpts, error) {
	o := resolveCallOpts(opts)
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return nil, o, ErrClosed
	}
	owner := sb.ring.OwnerBytes(sb.cfg.KeyOf(method, args))
	b := sb.bindings[owner]
	sb.mu.Unlock()
	if b == nil {
		return nil, o, fmt.Errorf("%w (key owner %q)", ErrNoShard, owner)
	}
	return b, o, nil
}

// Call routes one blocking invocation to the shard owning its key
// (Invoker surface). Ordering holds within the owning shard's group only.
func (sb *ShardedBinding) Call(ctx context.Context, method string, args []byte, opts ...CallOption) ([]Reply, error) {
	b, o, err := sb.route(method, args, opts)
	if err != nil {
		return nil, err
	}
	return b.call(ctx, method, args, o)
}

// InvokeAsync routes one pipelined invocation to the shard owning its key
// (Invoker surface). Backpressure is per shard: each shard's binding has
// its own outstanding-call window, so a slow shard only stalls its own
// keys.
func (sb *ShardedBinding) InvokeAsync(ctx context.Context, method string, args []byte, opts ...CallOption) (*Call, error) {
	b, o, err := sb.route(method, args, opts)
	if err != nil {
		return nil, err
	}
	return b.launch(ctx, method, args, o, true)
}

// Read routes one read to the shard owning its key (Invoker surface).
// The consistency options apply within that shard; the session floor is
// the owning shard's own stamp, which is exactly read-your-writes for
// keys of that shard.
func (sb *ShardedBinding) Read(ctx context.Context, method string, args []byte, opts ...CallOption) ([]byte, error) {
	b, o, err := sb.route(method, args, opts)
	if err != nil {
		return nil, err
	}
	return b.read(ctx, method, args, o)
}

// CallAll performs one invocation on EVERY shard (administration and
// whole-keyspace operations — shard.export, len aggregation). The calls
// run in parallel; the result maps shard name → replies. The first error
// is returned alongside whatever succeeded.
func (sb *ShardedBinding) CallAll(ctx context.Context, method string, args []byte, opts ...CallOption) (map[string][]Reply, error) {
	sb.mu.Lock()
	targets := make(map[string]*Binding, len(sb.bindings))
	for name, b := range sb.bindings {
		targets[name] = b
	}
	closed := sb.closed
	sb.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	o := resolveCallOpts(opts)
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		out     = make(map[string][]Reply, len(targets))
		firstEr error
	)
	for name, b := range targets {
		name, b := name, b
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies, err := b.call(ctx, method, args, o)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstEr == nil {
					firstEr = fmt.Errorf("core: shard %q: %w", name, err)
				}
				return
			}
			out[name] = replies
		}()
	}
	wg.Wait()
	return out, firstEr
}

// SessionStamps returns each shard's session token. Stamps from different
// shards are incomparable — the per-shard map is the only honest shape.
func (sb *ShardedBinding) SessionStamps() map[string]vclock.Stamp {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make(map[string]vclock.Stamp, len(sb.bindings))
	for name, b := range sb.bindings {
		out[name] = b.SessionStamp()
	}
	return out
}

// AddShard grows the fabric by one shard, migrating only the key ranges
// the ring moves to it. The protocol is switch→export→install→drop:
//
//  1. bind the new shard's group and switch routing to the grown ring —
//     new writes for moved keys go to the new owner immediately;
//  2. shard.export at every old shard (an ordered invocation, so it
//     captures a prefix-consistent cut of each group's state);
//  3. shard.install at the new shard — install never overwrites a key
//     the new owner already holds, so writes routed there since step 1
//     beat the migrated values, as they must;
//  4. shard.drop at the old shards, deleting only what the ring moved.
//
// Between steps 1 and 3 a read of a moved key at the new owner can miss
// (return the empty value): the migration window is eventually
// consistent, the price of never blocking writes. Keys that do not move
// are entirely unaffected. Export before drop means a failure mid-way
// leaves every key present somewhere.
func (sb *ShardedBinding) AddShard(ctx context.Context, sp ShardSpec) error {
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return ErrClosed
	}
	if _, dup := sb.specs[sp.Name]; dup {
		sb.mu.Unlock()
		return fmt.Errorf("core: add shard: %q already present", sp.Name)
	}
	old := sb.ring
	sb.mu.Unlock()

	b, err := sb.svc.Bind(ctx, sb.shardBindConfig(sp))
	if err != nil {
		return fmt.Errorf("core: add shard %q: %w", sp.Name, err)
	}

	grown := old.With(sp.Name)
	sb.mu.Lock()
	sb.bindings[sp.Name] = b
	sb.specs[sp.Name] = sp
	sb.ring = grown
	donors := make([]*Binding, 0, len(sb.bindings)-1)
	for name, d := range sb.bindings {
		if name != sp.Name {
			donors = append(donors, d)
		}
	}
	sb.mu.Unlock()

	return migrate(ctx, grown, donors, sp.Name, b)
}

// migrate runs the export→install→drop phases against an already-switched
// ring: each donor exports the pairs the ring no longer assigns it, all of
// which it now assigns to the new shard to, b (to's binding) installs
// them, and the donors drop them.
func migrate(ctx context.Context, ring *shard.Ring, donors []*Binding, to string, b *Binding) error {
	spec := shard.EncodeSpec(ring.Spec())
	incoming := make(map[string]string)
	for _, d := range donors {
		replies, err := d.Call(ctx, "shard.export", spec)
		if err != nil {
			return fmt.Errorf("core: migrate: export from %q: %w", d.serverGroup, err)
		}
		pairs, err := shard.DecodePairs(replies[0].Payload)
		if err != nil {
			return fmt.Errorf("core: migrate: export from %q: %w", d.serverGroup, err)
		}
		for k, v := range pairs {
			if owner := ring.Owner(k); owner != to {
				return fmt.Errorf("core: migrate: key %q moved to %q, not to %q", k, owner, to)
			}
			incoming[k] = v
		}
	}

	if len(incoming) > 0 {
		if _, err := b.Call(ctx, "shard.install", shard.EncodePairs(incoming)); err != nil {
			return fmt.Errorf("core: migrate: install at %q: %w", to, err)
		}
	}

	for _, d := range donors {
		if _, err := d.Call(ctx, "shard.drop", spec); err != nil {
			return fmt.Errorf("core: migrate: drop at %q: %w", d.serverGroup, err)
		}
	}
	return nil
}

// Close releases every shard's binding (Invoker surface).
func (sb *ShardedBinding) Close() error {
	sb.mu.Lock()
	if sb.closed {
		sb.mu.Unlock()
		return nil
	}
	sb.closed = true
	bindings := make([]*Binding, 0, len(sb.bindings))
	for _, b := range sb.bindings {
		bindings = append(bindings, b)
	}
	sb.mu.Unlock()
	var firstEr error
	for _, b := range bindings {
		if err := b.Close(); err != nil && firstEr == nil {
			firstEr = err
		}
	}
	return firstEr
}
