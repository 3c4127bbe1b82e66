/* SIGPROF sampler, loaded with LD_PRELOAD into a program built with
 * frame pointers. Every millisecond of process CPU time (ITIMER_PROF)
 * the handler records the interrupted PC and the return addresses on
 * the frame-pointer chain, walking only inside the sampled thread's
 * stack mapping (looked up once per thread in /proc/self/maps). At exit
 * it writes prof.<pid>.out in the working directory: the process's
 * /proc/self/maps, a "--" line, then one line of hex addresses per
 * sample, innermost first. symbolize.py names them.
 *
 *   gcc -O2 -shared -fPIC -o libprof.so prof.c */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdint.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define SLOTS (1u << 22) /* per sample: depth, then that many addresses */
#define MAX_DEPTH 128
static uintptr_t buf[SLOTS];
static unsigned long used;
static __thread uintptr_t stack_lo, stack_hi
    __attribute__((tls_model("initial-exec")));

static uintptr_t hex(const char **p) {
    uintptr_t v = 0;
    for (;; (*p)++) {
        char c = **p;
        int d = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
        if (d < 0) return v;
        v = v << 4 | (uintptr_t)d;
    }
}

/* The [lo, hi) mapping holding sp: async-signal-safe (open/read only). */
static void find_stack(uintptr_t sp) {
    char chunk[4096], line[512];
    size_t n = 0;
    ssize_t got;
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0) return;
    while ((got = read(fd, chunk, sizeof chunk)) > 0)
        for (ssize_t i = 0; i < got; i++) {
            if (chunk[i] != '\n') {
                if (n < sizeof line - 1) line[n++] = chunk[i];
                continue;
            }
            line[n] = 0, n = 0;
            const char *p = line;
            uintptr_t lo = hex(&p);
            p++;
            uintptr_t hi = hex(&p);
            if (lo <= sp && sp < hi) stack_lo = lo, stack_hi = hi;
        }
    close(fd);
}

static void on_prof(int sig, siginfo_t *si, void *uc_) {
    (void)sig, (void)si;
    mcontext_t *mc = &((ucontext_t *)uc_)->uc_mcontext;
    uintptr_t sp = mc->gregs[REG_RSP], fp = mc->gregs[REG_RBP], frames[MAX_DEPTH];
    unsigned long depth = 0;
    if (sp < stack_lo || sp >= stack_hi) find_stack(sp);
    frames[depth++] = mc->gregs[REG_RIP];
    /* Each frame holds [saved fp, return address]; callers sit higher. */
    while (depth < MAX_DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= stack_hi) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret) break;
        frames[depth++] = ret;
        if (next <= fp) break;
        fp = next;
    }
    unsigned long at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > SLOTS) return; /* full: later samples are dropped */
    buf[at] = depth;
    memcpy(&buf[at + 1], frames, depth * sizeof *frames);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval t = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char name[64], chunk[4096];
    snprintf(name, sizeof name, "prof.%d.out", (int)getpid());
    FILE *out = fopen(name, "w");
    int maps = open("/proc/self/maps", O_RDONLY);
    if (!out || maps < 0) return;
    ssize_t got;
    while ((got = read(maps, chunk, sizeof chunk)) > 0) fwrite(chunk, 1, (size_t)got, out);
    close(maps);
    fputs("--\n", out);
    unsigned long end = used < SLOTS ? used : SLOTS;
    for (unsigned long i = 0; i < end && i + 1 + buf[i] <= end; i += 1 + buf[i]) {
        for (uintptr_t d = 0; d < buf[i]; d++) fprintf(out, d ? " %lx" : "%lx", (unsigned long)buf[i + 1 + d]);
        fputc('\n', out);
    }
    fclose(out);
}
