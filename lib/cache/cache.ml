(* Library root: [Cache] is the tiered cache itself, with the building
   blocks exposed as submodules. *)

module Fingerprint = Fingerprint
module Store = Store
module Lru = Lru
module Memo = Memo
include Tiered
