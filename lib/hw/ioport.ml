exception General_protection of int

type range = {
  base : int;
  len : int;
  rd : off:int -> size:int -> int;
  wr : off:int -> size:int -> int -> unit;
}

type t = { mutable ranges : range list }

let port_space = 0x10000

let create () = { ranges = [] }

let overlaps a b = a.base < b.base + b.len && b.base < a.base + a.len

let register t ~base ~len ~read ~write =
  if base < 0 || len <= 0 || base + len > port_space then
    invalid_arg "Ioport.register: out of port space";
  let r = { base; len; rd = read; wr = write } in
  if List.exists (overlaps r) t.ranges then invalid_arg "Ioport.register: overlap";
  t.ranges <- r :: t.ranges

let find t port = List.find_opt (fun r -> port >= r.base && port < r.base + r.len) t.ranges

module Iopb = struct
  type t = { bits : Bytes.t; allow_all : bool }

  let none () = { bits = Bytes.make (port_space / 8) '\000'; allow_all = false }
  let all () = { bits = Bytes.make (port_space / 8) '\000'; allow_all = true }

  let set t port v =
    let byte = port / 8 and bit = port mod 8 in
    let cur = Char.code (Bytes.get t.bits byte) in
    let nxt = if v then cur lor (1 lsl bit) else cur land lnot (1 lsl bit) in
    Bytes.set t.bits byte (Char.chr nxt)

  let get t port = Char.code (Bytes.get t.bits (port / 8)) land (1 lsl (port mod 8)) <> 0

  let grant t ~base ~len =
    if base < 0 || len <= 0 || base + len > port_space then invalid_arg "Iopb.grant";
    for p = base to base + len - 1 do set t p true done

  let revoke t ~base ~len =
    if base < 0 || len <= 0 || base + len > port_space then invalid_arg "Iopb.revoke";
    for p = base to base + len - 1 do set t p false done

  let allows t ~port ~size =
    t.allow_all
    || (port >= 0 && port + size <= port_space
        && (let ok = ref true in
            for p = port to port + size - 1 do
              if not (get t p) then ok := false
            done;
            !ok))

  let granted_ranges t =
    if t.allow_all then [ (0, port_space) ]
    else begin
      let runs = ref [] and start = ref (-1) in
      for p = 0 to port_space - 1 do
        if get t p then begin
          if !start < 0 then start := p
        end
        else if !start >= 0 then begin
          runs := (!start, p - !start) :: !runs;
          start := -1
        end
      done;
      if !start >= 0 then runs := (!start, port_space - !start) :: !runs;
      List.rev !runs
    end
end

let check iopb port size =
  if not (Iopb.allows iopb ~port ~size) then raise (General_protection port)

let read t ~iopb ~port ~size =
  check iopb port size;
  match find t port with
  | None -> (1 lsl (size * 8)) - 1
  | Some r -> r.rd ~off:(port - r.base) ~size

let write t ~iopb ~port ~size v =
  check iopb port size;
  match find t port with
  | None -> ()
  | Some r -> r.wr ~off:(port - r.base) ~size v
