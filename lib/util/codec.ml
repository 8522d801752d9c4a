exception Malformed of string

module Enc = struct
  type t = Buffer.t

  let create ?(initial_size = 256) () = Buffer.create initial_size

  let uint t n =
    if n < 0 then invalid_arg "Codec.Enc.uint: negative";
    let rec go n =
      if n < 0x80 then Buffer.add_char t (Char.chr n)
      else begin
        Buffer.add_char t (Char.chr (0x80 lor (n land 0x7F)));
        go (n lsr 7)
      end
    in
    go n

  let int t n =
    (* zigzag: maps small-magnitude signed ints to small unsigned ints *)
    let z = (n lsl 1) lxor (n asr (Sys.int_size - 1)) in
    uint t (z land max_int)

  let bool t b = Buffer.add_char t (if b then '\001' else '\000')

  let float t f = Buffer.add_int64_le t (Int64.bits_of_float f)

  let string t s =
    uint t (String.length s);
    Buffer.add_string t s

  let option t f = function
    | None -> bool t false
    | Some v ->
      bool t true;
      f v

  let list t f l =
    uint t (List.length l);
    List.iter f l

  let array t f a =
    uint t (Array.length a);
    Array.iter f a

  let contents = Buffer.contents
  let length = Buffer.length
  let blit t dst pos = Buffer.blit t 0 dst pos (Buffer.length t)
end

module Dec = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }

  let byte t =
    if t.pos >= String.length t.data then raise (Malformed "unexpected end of input");
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let uint t =
    let rec go shift acc =
      if shift > Sys.int_size then raise (Malformed "varint too long");
      let b = byte t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let int t =
    let z = uint t in
    (z lsr 1) lxor (-(z land 1))

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | b -> raise (Malformed (Printf.sprintf "invalid bool byte %d" b))

  (* A truncated float fails where a byte-at-a-time read would: at the
     end of the input. *)
  let float t =
    if t.pos + 8 > String.length t.data then begin
      t.pos <- String.length t.data;
      raise (Malformed "unexpected end of input")
    end;
    let f = Int64.float_of_bits (String.get_int64_le t.data t.pos) in
    t.pos <- t.pos + 8;
    f

  let string t =
    let n = uint t in
    if t.pos + n > String.length t.data then raise (Malformed "string overruns input");
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let option t f = if bool t then Some (f t) else None

  let list t f =
    let n = uint t in
    List.init n (fun _ -> f t)

  let array t f =
    let n = uint t in
    Array.init n (fun _ -> f t)

  let pos t = t.pos
  let at_end t = t.pos >= String.length t.data

  let expect_end t =
    if not (at_end t) then
      raise (Malformed (Printf.sprintf "%d trailing bytes" (String.length t.data - t.pos)))
end
