type level = Debug | Info | Warn | Err

type t = { eng : Engine.t; mutable log : (int * level * string) list }

let create eng = { eng; log = [] }

let printk t level fmt =
  Format.kasprintf
    (fun msg -> t.log <- (Engine.now t.eng, level, msg) :: t.log)
    fmt

let entries t = List.rev t.log

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
    scan 0
  end

let matching t sub = List.filter (fun (_, _, m) -> contains_substring m sub) (entries t)
