// Two parallel loops that share one profiling pass. main's round loop
// (not a candidate) calls [evens] and [odds] alternately, so their
// loops never run at the same time, and each one reads and overwrites
// values that the other loop and main wrote. The data are seen as int,
// char and long with partial overlaps: [words] as ints and, through
// [bytes], as chars; [wide] as longs and, through [halves], as ints.
// main also stores into them between invocations. Each loop's graph
// must treat a value the other loop wrote as leaving that loop
// (downwards-exposed when read, killed when overwritten) and as
// entering the reading loop (upwards-exposed), as a separate profiling
// run of each loop does.
int words[32];
char *bytes;
long wide[16];
int *halves;
int stamp[8];

void evens(int round)
{
  int i;
#pragma parallel
  for (i = 0; i < 16; i++) {
    int w = words[2 * i];
    bytes[8 * i + 1] = (char)(w + round);
    words[2 * i] = w + i;
    wide[i] = wide[i] + halves[2 * i + 1];
    stamp[i % 8] = round;
  }
}

void odds(int round)
{
  int i;
#pragma parallel
  for (i = 0; i < 16; i++) {
    int c = bytes[8 * i + 1];
    words[2 * i + 1] = c * 3 + words[2 * i];
    halves[2 * i + 1] = i + round;
    if (round == 2) bytes[8 * i + 5] = (char)i;
    stamp[i % 8] = stamp[i % 8] + 1;
  }
}

int main(void)
{
  int r;
  long total = 0;
  bytes = (char *)(&words[0]);
  halves = (int *)(&wide[0]);
  for (r = 0; r < 3; r++) {
    evens(r);
    if (r == 1) words[4] = 7;
    odds(r);
    bytes[9] = (char)(r + 40);
    if (r == 0) wide[3] = 11;
  }
  for (r = 0; r < 32; r++) total = total + words[r];
  for (r = 0; r < 16; r++) total = total + wide[r];
  for (r = 0; r < 8; r++) total = total + stamp[r];
  printf("passmates %ld\n", total);
  return 0;
}
