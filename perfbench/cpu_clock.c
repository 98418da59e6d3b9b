/* The process CPU clock, read with clock_gettime(CLOCK_PROCESS_CPUTIME_ID):
   the time this process has spent running on a core, in seconds. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double hacperf_cpu_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value hacperf_cpu_now_byte(value unit)
{
  return caml_copy_double(hacperf_cpu_now(unit));
}
