(** On-disk machinery of {!Hier_fs}.

    The layout: a superblock, a byte-per-block allocation bitmap, 64-byte
    inodes with 11 direct pointers and one singly indirect pointer.  This
    functor hides it behind geometry, inode IO, block allocation,
    file-extent reads/writes and the block-accounting part of fsck;
    {!Hier_fs} adds only the namespace.

    Superblock byte 32 is always written as ['H'] and never read: a disk
    written by the former flat file system (['F'], every file at the
    root) mounts like any other. *)

type error =
  | Device_unavailable  (** the device returned None/false mid-operation *)
  | No_space  (** no free data block or inode *)
  | Not_found
  | Already_exists
  | Name_too_long  (** names are limited to 27 bytes *)
  | File_too_large
  | Not_formatted  (** mount: bad magic *)
  | Not_a_directory  (** path component is a regular file *)
  | Is_a_directory  (** file operation on a directory *)
  | Directory_not_empty  (** delete of a non-empty directory *)
  | Invalid_path  (** empty path, or rename into own subtree *)
  | Corrupt of string  (** fsck or mount found an inconsistency *)

val error_to_string : error -> string

val max_name : int
(** Longest directory-entry name (27 bytes). *)

val dirent_size : int

val file_kind : char
val dir_kind : char
(** Inode kind bytes of a regular file and of a directory. *)

val max_file_bytes : int
(** Largest representable file: [(11 + 128) * 512] bytes. *)

module Make (Dev : Blockdev.Device_intf.S) : sig
  type t

  val device : t -> Dev.t
  val n_inodes : t -> int

  (** {1 Formatting and mounting} *)

  val format : n_inodes:int -> Dev.t -> (t, error) result
  (** Lay out a fresh file system; inode 0 is the empty root directory. *)

  val mount : Dev.t -> (t, error) result

  (** {1 Inodes} *)

  type inode = { used : bool; kind : char; size : int; direct : int array; indirect : int }

  val empty_inode : inode
  val load_inode : t -> int -> (inode, error) result
  val store_inode : t -> int -> inode -> (unit, error) result
  val find_free_inode : t -> (int, error) result
  (** Lowest unused inode index above 0 (0 is always the root). *)

  (** {1 File extents} *)

  val read_inode_range : t -> inode -> offset:int -> length:int -> (bytes, error) result
  (** Bounds-checked against [inode.size]; holes read as zeroes. *)

  val write_inode_range : t -> int -> inode -> offset:int -> bytes -> (inode, error) result
  (** Writes and persists the updated inode (size grows as needed);
      returns it. *)

  val free_inode_blocks : t -> inode -> (unit, error) result
  (** Release every data block (and the indirect block) of an inode. *)

  val blocks_used : t -> inode -> (int, error) result

  (** {1 Directory entries}

      A directory's contents are just a file of fixed 32-byte entries:
      name (27 bytes, NUL-padded), inode number, a liveness byte. *)

  val decode_dirent : bytes -> int -> (string * int) option
  val encode_dirent : string -> int -> bytes
  val check_name : string -> (unit, error) result

  (** {1 Allocation} *)

  val free_blocks : t -> (int, error) result

  (** {1 Fsck support} *)

  val fsck_blocks : t -> live:(int * inode) list -> (unit, error) result
  (** Verify that the blocks referenced from [live] inodes are in range,
      referenced once, and agree exactly with the allocation bitmap. *)
end
