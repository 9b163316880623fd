type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dimensions must be positive";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let rows m = m.rows
let cols m = m.cols

let index m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix: index out of range";
  (i * m.cols) + j

let get m i j = m.data.(index m i j)
let set m i j v = m.data.(index m i j) <- v
let add m i j v = m.data.(index m i j) <- m.data.(index m i j) +. v

let of_rows rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Matrix.of_rows: empty";
  let cols = Array.length rows_arr.(0) in
  let m = create ~rows ~cols in
  Array.iteri
    (fun i row ->
      if Array.length row <> cols then invalid_arg "Matrix.of_rows: ragged rows";
      Array.iteri (fun j v -> set m i j v) row)
    rows_arr;
  m

let copy m = { m with data = Array.copy m.data }

let transpose m =
  let t = create ~rows:m.cols ~cols:m.rows in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      set t j i (get m i j)
    done
  done;
  t

let mul_vec m v =
  if Array.length v <> m.cols then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let solve a b =
  if a.rows <> a.cols then invalid_arg "Matrix.solve: matrix must be square";
  if Array.length b <> a.rows then invalid_arg "Matrix.solve: vector dimension mismatch";
  let n = a.rows in
  let m = copy a in
  let x = Array.copy b in
  for col = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining entry of this column to
       the diagonal. *)
    let pivot_row = ref col in
    for r = col + 1 to n - 1 do
      if Float.abs (get m r col) > Float.abs (get m !pivot_row col) then pivot_row := r
    done;
    if Float.abs (get m !pivot_row col) < 1e-12 then failwith "Matrix.solve: singular matrix";
    if !pivot_row <> col then begin
      for j = 0 to n - 1 do
        let tmp = get m col j in
        set m col j (get m !pivot_row j);
        set m !pivot_row j tmp
      done;
      let tmp = x.(col) in
      x.(col) <- x.(!pivot_row);
      x.(!pivot_row) <- tmp
    end;
    let pivot = get m col col in
    for r = col + 1 to n - 1 do
      let factor = get m r col /. pivot in
      if factor <> 0.0 then begin
        for j = col to n - 1 do
          set m r j (get m r j -. (factor *. get m col j))
        done;
        x.(r) <- x.(r) -. (factor *. x.(col))
      end
    done
  done;
  (* Back substitution. *)
  for r = n - 1 downto 0 do
    let acc = ref x.(r) in
    for j = r + 1 to n - 1 do
      acc := !acc -. (get m r j *. x.(j))
    done;
    x.(r) <- !acc /. get m r r
  done;
  x
