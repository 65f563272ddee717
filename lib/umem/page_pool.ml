type t = {
  budget_pages : int;
  mutable committed : int;
  mutable high_water : int;
}

exception Out_of_secure_memory of { requested_pages : int; available_pages : int }

let page_size = 4096
let pages_for_bytes n = (n + page_size - 1) / page_size

let create ~budget_bytes =
  if budget_bytes <= 0 then invalid_arg "Page_pool.create: budget must be positive";
  {
    budget_pages = pages_for_bytes budget_bytes;
    committed = 0;
    high_water = 0;
  }

let available_pages t = t.budget_pages - t.committed

let commit t ~pages =
  if pages < 0 then invalid_arg "Page_pool.commit: negative pages";
  if t.committed + pages > t.budget_pages then
    raise (Out_of_secure_memory { requested_pages = pages; available_pages = available_pages t });
  t.committed <- t.committed + pages;
  if t.committed > t.high_water then t.high_water <- t.committed

let release t ~pages =
  if pages < 0 || pages > t.committed then invalid_arg "Page_pool.release: bad page count";
  t.committed <- t.committed - pages

let committed_pages t = t.committed
let committed_bytes t = t.committed * page_size
let budget_bytes t = t.budget_pages * page_size
let high_water_bytes t = t.high_water * page_size
let reset_high_water t = t.high_water <- t.committed
