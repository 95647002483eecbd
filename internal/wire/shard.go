package wire

// Shard routing composes a shard id into the frame header's Instance field
// instead of spending a new header field on it. A fleet of S independent
// consensus groups shares one mesh; every frame must name both its group
// (shard) and the group's epoch (one consensus run). The composition
//
//	wireID = epoch << ShardBits(S) | shard
//
// keeps the existing uvarint encoding — and, critically, keeps the S=1
// encoding bit-identical to the unsharded one: ShardBits(1) == 0, so a
// single-group deployment composes to the plain epoch id and its frames are
// byte-for-byte what a pre-fleet peer would send. Receivers split the id
// back with the same bit count, route the shard to its group's router state,
// and compare the epoch with the shard's current one exactly as the
// unsharded router compares the plain id.

// MaxShardBits bounds the shard field width. The decoder rejects instance
// ids above 2^31, so the shard field and the per-shard epoch counter share
// 31 bits; 10 shard bits (1024 shards) leaves 2M epochs per shard before
// the composed id would stop decoding.
const MaxShardBits = 10

// MaxShards is the largest shard count the composed instance id can carry.
const MaxShards = 1 << MaxShardBits

// ShardBits returns the width of the shard field for a given shard count:
// the smallest b with 1<<b >= shards. One shard needs no field at all —
// the composed id is then the plain epoch id.
func ShardBits(shards int) uint {
	b := uint(0)
	for 1<<b < shards {
		b++
	}
	return b
}

// ComposeInstance packs (shard, epoch) into the wire instance id.
func ComposeInstance(inst, shard int, bits uint) int {
	return inst<<bits | shard
}

// SplitInstance unpacks a wire instance id into its epoch and shard. With bits == 0 every id splits to shard 0 and itself.
func SplitInstance(wireID int, bits uint) (inst, shard int) {
	return wireID >> bits, wireID & (1<<bits - 1)
}
