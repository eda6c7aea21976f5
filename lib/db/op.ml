type t =
  | Set of string * Value.t
  | Add of string * int
  | Remove of string
  | Set_if_newer of string * Value.t * int

let key = function
  | Set (k, _) | Add (k, _) | Remove k | Set_if_newer (k, _, _) -> k

let pp ppf = function
  | Set (k, v) -> Format.fprintf ppf "set %s=%a" k Value.pp v
  | Add (k, n) -> Format.fprintf ppf "add %s+=%d" k n
  | Remove k -> Format.fprintf ppf "remove %s" k
  | Set_if_newer (k, v, ts) ->
    Format.fprintf ppf "set-if-newer %s=%a@@%d" k Value.pp v ts
