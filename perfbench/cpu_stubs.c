/* The calling thread's CPU clock and CPU affinity. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* CPU time of the calling thread, in seconds, with the clock's full
   (nanosecond) resolution. */
double perfbench_thread_cpu_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_thread_cpu_seconds_byte(value unit)
{
  return caml_copy_double(perfbench_thread_cpu_seconds(unit));
}

/* The CPUs the calling thread may run on, in increasing order; empty
   when the mask cannot be read. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(arr);
  cpu_set_t set;
  int n = 0, i, j = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    n = CPU_COUNT(&set);
  if (n == 0) CAMLreturn(Atom(0));
  arr = caml_alloc_tuple(n);
  for (i = 0; i < CPU_SETSIZE && j < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(arr, j++, Val_int(i));
  CAMLreturn(arr);
}

/* Restrict the calling thread to the given CPUs; false when the kernel
   refuses. */
value perfbench_set_cpus(value cpus)
{
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) CPU_SET(Int_val(Field(cpus, i)), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
