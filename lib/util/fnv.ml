let basis = 0xcbf29ce484222325L
let mix h x = Int64.mul (Int64.logxor h x) 0x100000001b3L

let string h s =
  String.fold_left (fun h c -> mix h (Int64.of_int (Char.code c))) h s

let hex s = Printf.sprintf "%016Lx" (string basis s)
