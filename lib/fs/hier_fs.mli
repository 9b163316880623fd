(** A small UNIX-style file system over the ordinary block-device interface.

    The point of this module in the reproduction is the paper's transparency
    argument (Section 2): because the reliable device presents the same
    interface as one disk, "the file system requires no modification and
    normal file system semantics are preserved".  [Hier_fs] is accordingly a
    functor over {!Blockdev.Device_intf.S}: the {e same} code mounts a
    {!Blockdev.Mem_device} or a [Blockrep.Reliable_device].

    On-disk layout ({!Fs_core}; 512-byte blocks, big-endian integers):
    - block 0: superblock (magic, geometry);
    - allocation bitmap, one byte per data block;
    - inode table, 64-byte inodes (8 per block): flags, size, 11 direct
      block pointers, 1 singly indirect pointer — files up to
      [(11 + 128) * 512] bytes;
    - inode 0 is the root directory.  An inode is a regular file or a
      directory whose contents are 32-byte entries naming children.

    Paths are slash-separated, absolute or not ("/a/b" ≡ "a/b"); each
    component is limited to 27 bytes.  There are no hard links, so the
    namespace is a tree and every inode has exactly one parent.  Files
    kept at the root ("name") make a flat file system.  Unallocated file
    ranges read back as zeroes (sparse files). *)

type entry_kind = File | Directory

type entry = { name : string; kind : entry_kind }

type stats = { size : int; blocks_used : int; inode : int; kind : entry_kind }

module Make (Dev : Blockdev.Device_intf.S) : sig
  type t

  val format : ?n_inodes:int -> Dev.t -> (t, Fs_core.error) result
  (** Write a fresh file system (default 128 inodes) and return it
      mounted.  [No_space] when the device cannot hold the superblock,
      bitmap and inode table plus one data block. *)

  val mount : Dev.t -> (t, Fs_core.error) result
  (** Read and validate the superblock of an already formatted device. *)

  val device : t -> Dev.t

  (** {1 Directories} *)

  val mkdir : t -> string -> (unit, Fs_core.error) result
  (** Create one directory; the parent must exist
      ([mkdir "/a/b"] needs [/a]). *)

  val mkdir_p : t -> string -> (unit, Fs_core.error) result
  (** Create a directory and any missing ancestors. *)

  val list : t -> string -> (entry list, Fs_core.error) result
  (** Entries of a directory, in directory order. *)

  val rmdir : t -> string -> (unit, Fs_core.error) result
  (** Remove an {e empty} directory ([Directory_not_empty] otherwise;
      the root cannot be removed). *)

  (** {1 Files} *)

  val create : t -> string -> (unit, Fs_core.error) result
  val write : t -> string -> ?offset:int -> bytes -> (unit, Fs_core.error) result
  val append : t -> string -> bytes -> (unit, Fs_core.error) result
  val read : t -> string -> (bytes, Fs_core.error) result
  val read_range : t -> string -> offset:int -> length:int -> (bytes, Fs_core.error) result
  val truncate : t -> string -> (unit, Fs_core.error) result
  val unlink : t -> string -> (unit, Fs_core.error) result
  (** Remove a file ([Is_a_directory] on a directory — use {!rmdir}). *)

  (** {1 Common} *)

  val exists : t -> string -> bool
  val kind_of : t -> string -> (entry_kind, Fs_core.error) result
  val stat : t -> string -> (stats, Fs_core.error) result

  val free_blocks : t -> (int, Fs_core.error) result
  (** Unallocated data blocks remaining. *)

  val rename : t -> string -> string -> (unit, Fs_core.error) result
  (** [rename t src dst] moves a file or directory to a new path, whose
      parent must exist and whose final component must be free
      ([Already_exists] otherwise).  Moving a directory into its own
      subtree, or moving the root, is [Invalid_path]. *)

  val walk : t -> string -> (string list, Fs_core.error) result
  (** Every path under (and including) the given directory, depth-first —
      the recursive listing. *)

  val fsck : t -> (unit, Fs_core.error) result
  (** Tree walk + block accounting: every used inode reachable exactly
      once from the root, all pointers valid, bitmap exact. *)
end
