(** A small self-describing binary codec.

    Used by {!Snapshot} to serialize node state and by the wire codecs
    ({!Wire}, {!Wire_v2}). Deliberately simple and dependency-free:
    length-prefixed strings, fixed 64-bit integers for snapshots (node
    state is dominated by values, not integers), LEB128 varints for the
    v2 session and journal forms where the integers themselves dominate,
    and an exact Adler-32 (RFC 1950) checksum trailer so a truncated or
    corrupted payload is rejected instead of silently loaded. *)

val adler32_sub : string -> off:int -> len:int -> int
(** [adler32_sub data ~off ~len] is the Adler-32 checksum (RFC 1950) of
    bytes [\[off, off + len)] of [data] — the single kernel behind the
    envelope trailer, {!Wal}'s frame checksum and {!Snapshot}'s payload
    guard. It reduces mod 65521 once per block of at most 2{^20} bytes
    rather than per byte: from sums below 65521, a block that size
    grows them to under 2{^48}, so OCaml's 63-bit ints cannot overflow
    and the result equals the per-byte definition bit for bit. Raises
    [Invalid_argument] when the range is not inside [data]. *)

module Writer : sig
  type t

  val create : unit -> t

  val with_scratch : (t -> 'a) -> 'a
  (** [with_scratch f] runs [f] with a per-domain reusable writer
      (cleared before [f] sees it) instead of allocating a fresh
      buffer — the allocation-free path for encode-heavy callers.
      The writer is only valid during [f]; take {!contents} before
      returning. Nested calls and concurrent domains each get their
      own buffer. *)

  val int : t -> int -> unit
  (** Little-endian 64-bit. *)

  val string : t -> string -> unit
  (** Length-prefixed bytes. *)

  val bool : t -> bool -> unit

  val byte : t -> int -> unit
  (** One unsigned byte; [Invalid_argument] outside [\[0, 255\]]. *)

  val varint : t -> int -> unit
  (** LEB128: 7 value bits per byte, little-endian groups, high bit as
      the continuation flag. Small non-negative ints cost one byte; a
      negative int round-trips but costs the full 9 bytes. *)

  val svarint : t -> int -> unit
  (** Zig-zag then LEB128 — for the few signed fields, where small
      magnitudes of either sign must stay short. *)

  val vstring : t -> string -> unit
  (** Varint-length-prefixed bytes (the wire-v2 string form; {!string}
      is the fixed-width form). *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Count-prefixed sequence. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit

  val contents : t -> string
  (** The payload followed by its 4-byte little-endian Adler-32
      trailer, built with a single copy of the payload. *)
end

module Reader : sig
  type t

  exception Corrupt of string
  (** Raised on truncation, trailing garbage, or checksum mismatch. *)

  val create : string -> t
  (** [create data] validates the checksum trailer immediately, in
      place over [data] (no copy of the payload), and raises {!Corrupt}
      if it does not match. *)

  val create_sub : string -> off:int -> len:int -> t
  (** [create_sub data ~off ~len] is {!create} over bytes
      [\[off, off + len)] of [data] — the trailer is the range's last
      four bytes, checked in place, so an envelope embedded in a larger
      buffer (a WAL frame, a snapshot's inner payload) is read without
      a copy. Raises [Invalid_argument] when the range is not inside
      [data]. *)

  val int : t -> int

  val string : t -> string

  val span : t -> int * int
  (** [span t] reads a {!string}'s length prefix and skips its bytes
      without copying them, returning their [(off, len)] in the string
      the reader was created over. *)

  val bool : t -> bool

  val byte : t -> int

  val varint : t -> int
  (** Raises {!Corrupt} on truncation or a varint longer than 9 bytes
      (more than 63 value bits). *)

  val svarint : t -> int

  val vstring : t -> string

  val list : t -> (t -> 'a) -> 'a list
  (** Raises {!Corrupt} when the count is negative or exceeds the
      remaining payload (a forged count never reaches the allocator). *)

  val array : t -> (t -> 'a) -> 'a array

  val remaining : t -> int
  (** Unread payload bytes — the bound hand-rolled decoders (e.g.
      {!Wire_v2}) use to reject forged element counts before
      allocating. *)

  val expect_end : t -> unit
  (** Raises {!Corrupt} unless every payload byte was consumed. *)
end
